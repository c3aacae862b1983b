(** One leveled logging facility for the whole pipeline, so progress
    chatter is consistent, suppressible ([--quiet]), and capturable in
    tests.  Messages go to a redirectable formatter (stderr by default),
    keeping stdout for actual command output. *)

type level = Quiet | Info | Debug

val set_level : level -> unit

val level : unit -> level

val info : ('a, Format.formatter, unit) format -> 'a
(** Progress messages; shown at [Info] and [Debug]. *)

val debug : ('a, Format.formatter, unit) format -> 'a
(** Detail messages; shown at [Debug] only, prefixed ["debug: "]. *)

val error : ('a, Format.formatter, unit) format -> 'a
(** Always shown (even under [Quiet]), prefixed ["refill: "], on the error
    formatter. *)
