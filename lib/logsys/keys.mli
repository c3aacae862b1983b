(** A table from a packet key [(origin, seq)] to ['a]: open addressing
    with linear probing over a power-of-two capacity kept at most half
    full, and backward-shift deletion, so there are no tombstones.

    Keys are two unboxed ints, never a tuple, and a lookup returns an
    int slot ([-1] when the key is absent), so finding, adding and
    removing allocate nothing unless the table grows.  Reads may be
    shared across domains once the table is no longer written. *)

type 'a t

val create : ?size:int -> 'a -> 'a t
(** [create ?size absent] is an empty table that holds [size] keys
    (default 0) without growing.  [absent] fills empty value slots. *)

val length : 'a t -> int

val find : 'a t -> int -> int -> int
(** [find t origin seq] is the key's slot, or [-1]. *)

val value : 'a t -> int -> 'a
(** The value in a slot {!find} returned. *)

val add : 'a t -> int -> int -> 'a -> unit
(** Add a key known to be absent. *)

val replace : 'a t -> int -> int -> 'a -> unit

val remove : 'a t -> int -> unit
(** Empty a slot {!find} returned.  Other keys' slots may move. *)

val fold : (int -> int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Over every key, in slot order. *)
