(** Aligned plain-text tables for experiment output. *)

val render : header:string list -> string list list -> string
(** [render ~header rows] lays out the header and rows with columns padded to
    the widest cell, separated by two spaces, with a dashed rule under the
    header. Rows shorter than the header are padded with empty cells. *)
