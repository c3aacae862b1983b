(** Reconstruction-quality metrics against simulator ground truth.

    The live CitySee deployment could only sanity-check REFILL's output;
    with the simulated substrate we can *score* it: per-packet cause
    agreement, loss-position agreement, and how much of the true event
    flow the reconstruction recovers. *)

type confusion = {
  labels : Logsys.Cause.t list;
  matrix : int array array;  (** [matrix.(truth).(predicted)] counts. *)
  total : int;
  agree : int;
}

val confusion :
  truth:Logsys.Truth.t ->
  verdicts:((int * int) * Logsys.Cause.t) list ->
  confusion
(** Build the cause confusion matrix over packets present in both inputs. *)

val accuracy : confusion -> float

val per_cause : confusion -> (Logsys.Cause.t * float * float * int) list
(** [(cause, precision, recall, support)] per cause with nonzero support or
    predictions. *)

val position_accuracy :
  truth:Logsys.Truth.t ->
  positions:((int * int) * int option) list ->
  float
(** Fraction of *lost* packets (per ground truth) whose predicted loss node
    matches the true loss node; predictions of [None] count as wrong. *)

type flow_quality = {
  event_recall : float;
      (** Share of true events recovered (logged or inferred), averaged
          over packets. *)
  event_precision : float;
      (** Share of reconstructed events that really happened. *)
  order_agreement : float;
      (** Share of same-packet event pairs whose relative order matches
          ground truth, averaged over packets with ≥ 2 matched events. *)
}

val flow_quality :
  ground_truth:Logsys.Record.t list -> flows:Refill.Flow.t list -> flow_quality
(** Events are matched per packet by (node, kind-name, peer) with
    multiplicity; an inferred event with an unknown peer matches any peer. *)

type path_quality = {
  exact : float;
      (** Share of packets whose reconstructed hop path equals the true
          path exactly (an inferred final hop beyond the true path — the
          acked-loss case, where only the sender's ACK proves the hop — is
          also counted as exact). *)
  prefix_similarity : float;
      (** Mean over packets of |longest common prefix| / |longer path|. *)
}

val path_quality :
  truth:Logsys.Truth.t -> flows:Refill.Flow.t list -> path_quality
(** Score {!Refill.Flow.nodes_visited} against the ground-truth hop paths
    (packets without a truth entry are skipped). *)
