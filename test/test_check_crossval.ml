(* Cross-validation of the static loss-radius analysis against the
   inference engine itself: the checker's predictions are claims about
   what §IV.B reconstruction does under targeted record loss, so we drive
   the engine and hold it to them.

   For every shortcut site the analysis reports:

   - finite radius k: there must be two distinct model-consistent ground
     truths whose surviving projection is identical with at most k lost
     records each — so the (deterministic) engine output must diverge
     from at least one of them.  We assert both witnesses replay on the
     FSM, feed the surviving projection to the engine, and check the
     reconstruction is itself a model-consistent completion that differs
     from one of the two ground truths.

   - infinite radius (the safe verdict): brute-force enumeration up to a
     generous bound must find exactly one completion, and the engine must
     reconstruct exactly it — a false-safe site would show up as either a
     second completion or a diverging reconstruction.

   The same harness runs over the builtin models and a qcheck corpus of
   random FSMs with random extra edges (which seed diamonds, duplicate
   projections, and cycles), so the soundness claim is not anchored to
   hand-picked examples. *)

open Refill_check
module Fsm = Refill.Fsm
module Engine = Refill.Engine

(* -- Engine driver ----------------------------------------------------------- *)

(* Single-node reconstruction: feed the surviving labels, collect the
   reconstructed flow as (label, entered, inferred) triples. *)
let reconstruct fsm labels =
  let config =
    {
      Engine.fsm_of = (fun _ -> fsm);
      prerequisites = (fun ~node:_ ~label:_ ~payload:_ -> []);
      infer_payload = (fun ~node:_ ~label:_ -> None);
    }
  in
  let items = ref [] in
  let stats =
    Engine.process config
      (Engine.Events
         (Array.of_list (List.map (fun l -> (0, l, None)) labels)))
      ~emit:(fun ~node:_ ~label ~payload:_ ~inferred ~entered ->
        items := (label, entered, inferred) :: !items)
  in
  (List.rev !items, stats)

(* -- Per-site validation ------------------------------------------------------ *)

(* Replay [labels] from the initial state with the engine's own
   first-added-wins normal steps; [Some x] when every label fires normally
   and lands on [x].  Sites whose access path would misfire (possible on
   nondeterministic corpus FSMs) are skipped rather than mis-asserted. *)
let replay_prefix fsm labels =
  List.fold_left
    (fun acc l ->
      match acc with
      | None -> None
      | Some s -> Fsm.normal_next fsm ~from:s l)
    (Some (Fsm.initial fsm))
    labels

(* A completion must chain edge-to-edge from the site state, use only real
   transitions, and end with the observed label. *)
let completion_valid fsm ~state ~label c =
  c <> []
  && (let _, _, last = List.nth c (List.length c - 1) in
      last = label)
  && (match c with (s, _, _) :: _ -> s = state | [] -> false)
  && List.for_all
       (fun (s, d, l) ->
         List.mem (s, d, l) (Fsm.transitions fsm))
       c
  &&
  let rec chained = function
    | (_, d, _) :: ((s, _, _) :: _ as rest) -> d = s && chained rest
    | _ -> true
  in
  chained c

(* The engine's reconstruction of the site, as the completion it implies:
   the items it emits past the prefix, which must be inferred lost events
   followed by the observed one. *)
let engine_tail items prefix_len =
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  drop prefix_len items

(* What the engine should emit for a given ground-truth completion: every
   lost edge as an inferred event, the final one as the observed record. *)
let completion_as_items c =
  let n = List.length c in
  List.mapi (fun i (_, d, l) -> (l, d, i < n - 1)) c

(* Don't let the witness search blow up on pathological corpus FSMs: a
   radius this large only arises on near-linear graphs in practice, and
   the static DP already terminated; the dynamic check is skipped. *)
let max_dynamic_radius = 10

let validate_site fsm (site : _ Loss.site) =
  let fail fmt =
    Printf.ksprintf (fun m -> Alcotest.failf "site validation: %s" m) fmt
  in
  let prefix =
    match
      Fsm.shortest_path fsm ~from:(Fsm.initial fsm) ~to_:site.state
    with
    | Some p -> List.map (fun (_, _, l) -> l) p
    | None -> fail "site state unreachable"
  in
  let prefix_ok = replay_prefix fsm prefix = Some site.state in
  match site.radius with
  | Some k when k > max_dynamic_radius -> ()
  | Some k ->
      (* (a) two distinct ground truths within k drops each... *)
      (match site.witnesses with
      | [ w1; w2 ] ->
          if w1 = w2 then fail "witnesses not distinct";
          List.iter
            (fun w ->
              if not (completion_valid fsm ~state:site.state ~label:site.label w)
              then fail "witness does not replay on the FSM";
              if List.length w - 1 > k then
                fail "witness exceeds the predicted radius %d" k)
            [ w1; w2 ];
          (* ...with identical surviving projections by construction: only
             the final record of each survives, and both carry the label. *)
          if prefix_ok then begin
            let observed = prefix @ [ site.label ] in
            let items, stats = reconstruct fsm observed in
            if stats.Engine.skipped <> 0 then
              fail "engine skipped an event on the surviving projection";
            let tail = engine_tail items (List.length prefix) in
            let all =
              Loss.completions fsm ~from:site.state site.label ~max_losses:k
                ~max_count:64
            in
            let as_items = List.map (completion_as_items) all in
            if not (List.mem tail as_items) then
              fail "engine reconstruction is not a model-consistent completion";
            let truths =
              List.map completion_as_items [ w1; w2 ]
            in
            if not (List.exists (fun t -> t <> tail) truths) then
              fail "no divergent ground truth under %d drops" k
          end
      | ws -> fail "expected two witnesses, got %d" (List.length ws))
  | None ->
      (* (b) the safe verdict: a unique completion even far past any cycle,
         and the engine reconstructs exactly it. *)
      let bound = (2 * Fsm.n_states fsm) + 2 in
      (match
         Loss.completions fsm ~from:site.state site.label ~max_losses:bound
           ~max_count:2
       with
      | [ unique ] ->
          if prefix_ok then begin
            let observed = prefix @ [ site.label ] in
            let items, stats = reconstruct fsm observed in
            if stats.Engine.skipped <> 0 then
              fail "engine skipped an event at a safe site";
            let tail = engine_tail items (List.length prefix) in
            if tail <> completion_as_items unique then
              fail "engine diverged at a statically safe site"
          end
      | cs ->
          fail "safe site has %d completions within %d losses (false safe)"
            (List.length cs) bound)

let validate_fsm fsm =
  List.iter (validate_site fsm) (Loss.analyze fsm)

(* -- Builtin models ----------------------------------------------------------- *)

let builtin_roles =
  List.concat_map
    (fun (r : _ Model.role) -> [ ("ctp/" ^ r.role, r.fsm) ])
    Builtin.ctp.Model.roles

let crossval_ctp () =
  List.iter (fun (_, fsm) -> validate_fsm fsm) builtin_roles;
  (* The harness must not be vacuous: ctp has finite-radius sites. *)
  let finite =
    List.concat_map
      (fun (_, fsm) ->
        List.filter
          (fun (s : _ Loss.site) -> s.radius <> None)
          (Loss.analyze fsm))
      builtin_roles
  in
  Alcotest.(check bool) "ctp has finite-radius sites" true (finite <> [])

let crossval_dissem () =
  List.iter
    (fun (r : _ Model.role) -> validate_fsm r.fsm)
    Builtin.dissem.Model.roles

let crossval_broken () =
  List.iter
    (fun (r : _ Model.role) -> validate_fsm r.fsm)
    Builtin.broken.Model.roles;
  (* And the pinned fixture values survive the dynamic check: the k=1 and
     k=2 sites of role c diverge, its two safe sites do not. *)
  let c =
    List.find (fun (r : _ Model.role) -> r.role = "c")
      Builtin.broken.Model.roles
  in
  let radii =
    List.map (fun (s : _ Loss.site) -> s.radius) (Loss.analyze c.fsm)
  in
  Alcotest.(check (list (option int)))
    "role c radii" [ Some 1; Some 2; None; None ] radii

(* -- qcheck corpus ------------------------------------------------------------ *)

(* Arborescence plus a few arbitrary extra edges re-using the same label
   pool: seeds diamonds, duplicate projections, joins, and cycles, i.e.
   exactly the shapes that produce finite radii. *)
let corpus_gen =
  QCheck.(
    pair
      (list_of_size (Gen.int_range 1 5) (int_range 0 1000))
      (list_of_size (Gen.int_range 0 3) (triple small_nat small_nat small_nat)))

let corpus_fsm (parents, extras) =
  let n = List.length parents + 1 in
  let f = Fsm.create ~n_states:n ~initial:0 in
  List.iteri
    (fun i p ->
      let child = i + 1 in
      Fsm.add_transition f ~src:(p mod child) ~dst:child
        ("l" ^ string_of_int child))
    parents;
  List.iter
    (fun (a, b, c) ->
      Fsm.add_transition f ~src:(a mod n) ~dst:(b mod n)
        ("l" ^ string_of_int (c mod (n + 1))))
    extras;
  f

let crossval_corpus =
  QCheck.Test.make
    ~name:"every finite-k prediction diverges; no false-safe sites"
    ~count:300 corpus_gen (fun spec ->
      validate_fsm (corpus_fsm spec);
      true)

let () =
  Alcotest.run "refill-check-crossval"
    [
      ( "builtins",
        [
          Alcotest.test_case "ctp" `Quick crossval_ctp;
          Alcotest.test_case "dissem" `Quick crossval_dissem;
          Alcotest.test_case "broken-demo" `Quick crossval_broken;
        ] );
      ("corpus", [ QCheck_alcotest.to_alcotest crossval_corpus ]);
    ]
