(** Descriptive statistics over float samples.

    Small, allocation-light helpers used by the analysis layer and the
    benchmark harness to summarise distributions (loss counts, delays,
    reconstruction accuracy). *)

val mean : float array -> float
(** Arithmetic mean; 0 on the empty array. *)

val variance : float array -> float
(** Population variance; 0 for arrays of length < 2. *)

val stddev : float array -> float

val min_max : float array -> float * float
(** @raise Invalid_argument on empty input. *)

val percentile : float array -> p:float -> float
(** [percentile a ~p] with [p] in [\[0, 100\]], linear interpolation between
    closest ranks. The input is not modified.
    @raise Invalid_argument on empty input or [p] out of range. *)

val median : float array -> float

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p25 : float;
  p50 : float;
  p75 : float;
  p95 : float;
  max : float;
}

val summarize : float array -> summary
(** @raise Invalid_argument on empty input. *)

type histogram = { bins : int array; lo : float; hi : float; width : float }

val histogram : float array -> bins:int -> histogram
(** Equal-width histogram spanning [min, max] of the data; samples equal to
    the maximum land in the last bin.
    @raise Invalid_argument on empty input or [bins <= 0]. *)

val ratio : int -> int -> float
(** [ratio num den] is [num/den] as a percentage-friendly float, 0 when
    [den = 0]. *)
