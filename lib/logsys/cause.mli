(** Packet outcomes and loss causes (the taxonomy of §V.B–V.C).

    The simulator records the ground-truth outcome of every packet; REFILL
    and the baselines each infer an outcome from logs.  Comparing the two is
    how we measure reconstruction quality — something the paper could not do
    on the live deployment. *)

type t =
  | Delivered  (** Reached the base-station server. *)
  | Timeout_loss
      (** Sender exhausted retransmissions (low link quality). *)
  | Duplicate_loss  (** Dropped by a duplicate cache (routing loop). *)
  | Overflow_loss  (** Dropped at a full forwarding queue. *)
  | Received_loss
      (** Received by a node (recv logged) and then lost inside it —
          up-stack failure, or the sink's serial link after logging. *)
  | Acked_loss
      (** Hardware-ACKed but never seen by the receiver's upper layers —
          the flow ends at the sender's [ack recvd]. *)
  | Server_outage_loss
      (** Delivered by the sink while the backbone server was down. *)
  | Unknown  (** An analyzer's "cannot determine" verdict. *)

val all : t list
(** Every constructor, in a stable display order. *)

val loss_causes : t list
(** [all] minus [Delivered] and [Unknown]. *)

val name : t -> string

val of_name : string -> t option

val equal : t -> t -> bool

val compare : t -> t -> int

val is_loss : t -> bool
(** True for every constructor except [Delivered] and [Unknown]. *)
