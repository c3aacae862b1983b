(** Binary min-heap keyed by a float priority.

    Used as the pending-event queue of the discrete-event simulator.  Ties are
    broken by insertion order (FIFO among equal priorities) so simulation
    results are independent of heap internals. *)

type 'a t

val create : unit -> 'a t
(** Fresh empty heap. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> priority:float -> 'a -> unit
(** Insert an element. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the element with the smallest priority; [None] when
    empty. Equal priorities pop in insertion order. *)

val peek : 'a t -> (float * 'a) option
(** Smallest element without removing it. *)

val to_sorted_list : 'a t -> (float * 'a) list
(** Drain a copy of the heap in priority order (the heap is unchanged). *)
