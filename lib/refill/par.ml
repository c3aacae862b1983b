(* Domain fan-out for the per-packet reconstruction loop.

   Packets are independent, so Reconstruct.run shards them over a small
   pool of domains pulling indices from a shared atomic counter.  Workers
   read the packet index ([Arena.Packets], and for a snapshot its flat
   record array) only after the calling domain has built it, so it is
   read-only by then.  The only shared mutable state in a worker's path is
   [Refill_obs]'s metrics and trace sink, which any domain may write, so
   process-wide totals stay exact regardless of the fan-out. *)

let default_jobs () = Domain.recommended_domain_count ()

(* Below this many items a domain spawn costs more than it saves; callers
   use it to keep small workloads (unit tests, single packets) serial. *)
let min_parallel_items = 256

let map_array ~jobs f arr =
  let n = Array.length arr in
  let jobs = min jobs n in
  if n = 0 then [||]
  else if jobs <= 1 then Array.map f arr
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* First worker exception, with its backtrace.  Workers trap instead of
       letting the exception escape the domain: an escaped exception would
       reach [Domain.join] (wrapped beyond recognition), leave its slots
       [None], and crash the collector below.  Once set, the remaining
       workers drain without calling [f] again. *)
    let error = Atomic.make None in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n && Atomic.get error = None then begin
          (match f arr.(i) with
          | v -> results.(i) <- Some v
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore
                (Atomic.compare_and_set error None (Some (e, bt)) : bool));
          loop ()
        end
      in
      loop ()
    in
    let helpers = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join helpers;
    (match Atomic.get error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end
