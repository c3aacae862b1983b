(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that every
    simulation and experiment is reproducible from a single 64-bit seed.  The
    generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): fast, small
    state, and splittable, which lets independent subsystems draw from
    statistically independent streams derived from one master seed. *)

type t
(** Mutable generator state. *)

val create : seed:int64 -> t
(** [create ~seed] returns a fresh generator. Two generators created with the
    same seed produce identical streams. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy evolves independently. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of [t]'s subsequent output. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val unit_float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean.
    @raise Invalid_argument if [mean <= 0]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normally distributed sample (Box–Muller). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choice : t -> 'a array -> 'a
(** Uniform element. @raise Invalid_argument on empty array. *)

val sample_without_replacement : t -> k:int -> n:int -> int list
(** [sample_without_replacement t ~k ~n] draws [k] distinct indices from
    [\[0, n)] in increasing order. @raise Invalid_argument if [k > n]. *)
