(** Data packets flowing through the simulated collection network.

    A packet is identified globally by [id] and carries its origin node and
    per-origin sequence number — the information CitySee packets carry and
    the information REFILL's event records key on. *)

type node_id = int
(** Nodes are dense integer ids [0 .. n-1]; the sink is one of them. *)

type t = {
  id : int;  (** Globally unique packet id. *)
  origin : node_id;  (** Node whose application layer generated the packet. *)
  seq : int;  (** Per-origin sequence number, starting at 0. *)
  created_at : float;  (** Simulated generation time. *)
}

val compare : t -> t -> int
(** Orders by [id]. *)

val equal : t -> t -> bool

type allocator
(** Hands out unique packet ids and per-origin sequence numbers. *)

val allocator : unit -> allocator

val fresh : allocator -> origin:node_id -> now:float -> t

val count : allocator -> int
(** Total packets allocated so far. *)
