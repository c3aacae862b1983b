let mean a =
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let sum = ref 0. in
    Array.iter (fun x -> sum := !sum +. x) a;
    !sum /. float_of_int n
  end

let variance a =
  let n = Array.length a in
  if n < 2 then 0.
  else begin
    let m = mean a in
    let acc = ref 0. in
    Array.iter
      (fun x ->
        let d = x -. m in
        acc := !acc +. (d *. d))
      a;
    !acc /. float_of_int n
  end

let stddev a = sqrt (variance a)

let min_max a =
  if Array.length a = 0 then invalid_arg "Stats.min_max: empty";
  let lo = ref a.(0) and hi = ref a.(0) in
  Array.iter
    (fun x ->
      if x < !lo then lo := x;
      if x > !hi then hi := x)
    a;
  (!lo, !hi)

let percentile a ~p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let w = rank -. float_of_int lo in
    (sorted.(lo) *. (1. -. w)) +. (sorted.(hi) *. w)
  end

let median a = percentile a ~p:50.

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

let summarize a =
  if Array.length a = 0 then invalid_arg "Stats.summarize: empty";
  let min, max = min_max a in
  {
    n = Array.length a;
    mean = mean a;
    stddev = stddev a;
    min;
    p25 = percentile a ~p:25.;
    p50 = percentile a ~p:50.;
    p75 = percentile a ~p:75.;
    p95 = percentile a ~p:95.;
    max;
  }

type histogram = { bins : int array; lo : float; hi : float; width : float }

let histogram a ~bins =
  if Array.length a = 0 then invalid_arg "Stats.histogram: empty";
  if bins <= 0 then invalid_arg "Stats.histogram: bins <= 0";
  let lo, hi = min_max a in
  let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
      let i = int_of_float ((x -. lo) /. width) in
      let i = if i >= bins then bins - 1 else if i < 0 then 0 else i in
      counts.(i) <- counts.(i) + 1)
    a;
  { bins = counts; lo; hi; width }

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den
