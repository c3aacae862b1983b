(* Tests for Refill_check: the six pass families each get at least one
   positive (clean) and one negative (diagnosed) case, the built-in models
   must report exactly their known findings, and qcheck properties pin that
   randomly generated well-formed FSMs pass while seeded mutations produce
   the expected diagnostic codes. *)

open Refill_check
module Fsm = Refill.Fsm
module P = Refill.Protocol

let codes diags = List.map (fun (d : Diagnostic.t) -> d.code) diags

let has_code c diags = List.mem c (codes diags)

let errors = Check.error_count

let warnings diags = Diagnostic.count Diagnostic.Warning diags

(* A minimal single-role model around an FSM: total classifier, no
   prerequisites — the neutral harness for the per-pass tests. *)
let model_of ?(name = "m") ?(entry_states = [ 0 ])
    ?(frontier_cause = fun s -> Some ("s" ^ string_of_int s))
    ?(prerequisites = fun ~role:_ _ -> []) roles =
  {
    Model.name;
    label_name = Fun.id;
    roles =
      List.map
        (fun (role, fsm) ->
          {
            Model.role;
            fsm;
            state_name = (fun s -> "s" ^ string_of_int s);
            entry_states;
            frontier_cause;
          })
        roles;
    prerequisites;
  }

let chain labels =
  let n = List.length labels + 1 in
  let f = Fsm.create ~n_states:n ~initial:0 in
  List.iteri (fun i l -> Fsm.add_transition f ~src:i ~dst:(i + 1) l) labels;
  f

(* -- Pass 1: well-formedness ------------------------------------------------ *)

let wf_clean () =
  let m = model_of [ ("r", chain [ "a"; "b" ]) ] in
  let diags = Check.well_formedness m in
  Alcotest.(check int) "no errors" 0 (errors diags);
  Alcotest.(check int) "no warnings" 0 (warnings diags)

let wf_orphan_state () =
  let f = chain [ "a"; "b" ] in
  (* State 3 exists only as the source of an edge: unreachable but wired. *)
  let f' = Fsm.create ~n_states:4 ~initial:0 in
  List.iter
    (fun (s, d, l) -> Fsm.add_transition f' ~src:s ~dst:d l)
    (Fsm.transitions f);
  Fsm.add_transition f' ~src:3 ~dst:1 "z";
  let diags = Check.well_formedness (model_of [ ("r", f') ]) in
  Alcotest.(check bool) "FSM001" true (has_code "FSM001" diags)

let wf_dead_end_no_cause () =
  let m =
    model_of
      ~frontier_cause:(fun s -> if s = 2 then None else Some "ok")
      [ ("r", chain [ "a"; "b" ]) ]
  in
  let diags = Check.well_formedness m in
  Alcotest.(check bool) "FSM002" true (has_code "FSM002" diags)

let wf_label_never_fires () =
  let f = Fsm.create ~n_states:4 ~initial:0 in
  Fsm.add_transition f ~src:0 ~dst:1 "a";
  (* "z" only fires from state 2, which nothing reaches. *)
  Fsm.add_transition f ~src:2 ~dst:3 "z";
  Fsm.add_transition f ~src:3 ~dst:2 "y";
  let diags = Check.well_formedness (model_of [ ("r", f) ]) in
  Alcotest.(check bool) "FSM003" true (has_code "FSM003" diags);
  Alcotest.(check bool) "FSM001 too" true (has_code "FSM001" diags)

let wf_nondeterministic () =
  let f = Fsm.create ~n_states:3 ~initial:0 in
  Fsm.add_transition f ~src:0 ~dst:1 "a";
  Fsm.add_transition f ~src:0 ~dst:2 "a";
  let diags = Check.well_formedness (model_of [ ("r", f) ]) in
  Alcotest.(check bool) "FSM004" true (has_code "FSM004" diags)

(* -- Pass 2: intra audit ---------------------------------------------------- *)

let intra_clean_chain () =
  let diags = Check.intra_audit (model_of [ ("r", chain [ "a"; "b"; "c" ]) ]) in
  (* Every skip-able label has a unique reachable target on a chain: no
     ambiguity, and only backwards labels are blind. *)
  Alcotest.(check bool) "no INT001" false (has_code "INT001" diags);
  Alcotest.(check bool) "summary present" true (has_code "INT000" diags)

let intra_ambiguous () =
  (* From 0, label "x" reaches two distinct targets and no normal edge:
     §IV.B's uniqueness fails, the event would be skipped. *)
  let f = Fsm.create ~n_states:5 ~initial:0 in
  Fsm.add_transition f ~src:0 ~dst:1 "a";
  Fsm.add_transition f ~src:0 ~dst:2 "b";
  Fsm.add_transition f ~src:1 ~dst:3 "x";
  Fsm.add_transition f ~src:2 ~dst:4 "x";
  let diags = Check.intra_audit (model_of [ ("r", f) ]) in
  Alcotest.(check bool) "INT001" true (has_code "INT001" diags)

let intra_blind_spot () =
  (* A terminal state can replay nothing: every label is blind there. *)
  let diags = Check.intra_audit (model_of [ ("r", chain [ "a" ]) ]) in
  Alcotest.(check bool) "INT002 at terminal" true (has_code "INT002" diags)

(* -- Pass 3: prerequisite graph --------------------------------------------- *)

let two_role_model ?(b = chain [ "p"; "q" ]) ~target () =
  model_of
    ~prerequisites:(fun ~role label ->
      if role = "a" && label = "b" then [ ("b", target) ] else [])
    [ ("a", chain [ "a"; "b" ]); ("b", b) ]

let prereq_clean () =
  let diags = Check.prereq_graph (two_role_model ~target:2 ()) in
  Alcotest.(check int) "no errors" 0 (errors diags);
  Alcotest.(check bool) "acyclic: no PRE004" false (has_code "PRE004" diags)

let prereq_unreachable_target () =
  (* Delete the edge into the prerequisite state: b's chain stops at 1. *)
  let b = Fsm.create ~n_states:3 ~initial:0 in
  Fsm.add_transition b ~src:0 ~dst:1 "p";
  let diags = Check.prereq_graph (two_role_model ~b ~target:2 ()) in
  Alcotest.(check bool) "PRE001" true (has_code "PRE001" diags);
  Alcotest.(check bool) "is an error" true (errors diags > 0)

let prereq_unknown_role () =
  let m =
    model_of
      ~prerequisites:(fun ~role:_ label ->
        if label = "a" then [ ("ghost", 0) ] else [])
      [ ("a", chain [ "a" ]) ]
  in
  Alcotest.(check bool) "PRE002" true
    (has_code "PRE002" (Check.prereq_graph m))

let prereq_out_of_range () =
  let diags = Check.prereq_graph (two_role_model ~target:99 ()) in
  Alcotest.(check bool) "PRE003" true (has_code "PRE003" diags)

let prereq_cycle () =
  let m =
    model_of
      ~prerequisites:(fun ~role label ->
        match (role, label) with
        | "a", "a" -> [ ("b", 1) ]
        | "b", "p" -> [ ("a", 1) ]
        | _ -> [])
      [ ("a", chain [ "a" ]); ("b", chain [ "p" ]) ]
  in
  let diags = Check.prereq_graph m in
  Alcotest.(check bool) "PRE004" true (has_code "PRE004" diags);
  (* Cycles are a property of the engine's runtime guard, not a defect. *)
  Alcotest.(check int) "info only" 0 (errors diags)

(* -- Pass 4: classification totality ---------------------------------------- *)

let class_total () =
  let diags = Check.classification (model_of [ ("r", chain [ "a"; "b" ]) ]) in
  Alcotest.(check int) "no gaps" 0 (errors diags);
  Alcotest.(check bool) "summary" true (has_code "CLS000" diags)

let class_gap () =
  let m =
    model_of ~entry_states:[ 1 ]
      ~frontier_cause:(fun s -> if s = 2 then None else Some "ok")
      [ ("r", chain [ "a"; "b" ]) ]
  in
  let diags = Check.classification m in
  Alcotest.(check bool) "CLS001" true (has_code "CLS001" diags);
  Alcotest.(check bool) "is an error" true (errors diags > 0)

let class_gap_outside_frontier_ok () =
  (* The gap state exists but is not reachable from the entry: no error. *)
  let m =
    model_of ~entry_states:[ 2 ]
      ~frontier_cause:(fun s -> if s = 0 then None else Some "ok")
      [ ("r", chain [ "a"; "b" ]) ]
  in
  Alcotest.(check int) "no errors" 0 (errors (Check.classification m))

(* -- Pass 5: loss radius ----------------------------------------------------- *)

(* 0 -u-> 1 -w-> 3 -z-> 4 with a second branch 0 -v-> 2 -w-> 3: from 0,
   a single lost record leaves "w" two completions (via u or via v), and a
   two-record burst does the same to "z"; from 1 or 2 every completion is
   unique at any loss. *)
let diamond () =
  let f = Fsm.create ~n_states:5 ~initial:0 in
  Fsm.add_transition f ~src:0 ~dst:1 "u";
  Fsm.add_transition f ~src:0 ~dst:2 "v";
  Fsm.add_transition f ~src:1 ~dst:3 "w";
  Fsm.add_transition f ~src:2 ~dst:3 "w";
  Fsm.add_transition f ~src:3 ~dst:4 "z";
  f

let loss_radius_values () =
  let f = diamond () in
  Alcotest.(check (option int)) "k=1 at (0,w)" (Some 1)
    (Loss.radius f ~from:0 "w");
  Alcotest.(check (option int)) "k=2 at (0,z)" (Some 2)
    (Loss.radius f ~from:0 "z");
  Alcotest.(check (option int)) "safe at (1,z)" None
    (Loss.radius f ~from:1 "z");
  Alcotest.(check (option int)) "safe at (2,z)" None
    (Loss.radius f ~from:2 "z")

let loss_witnesses_distinct () =
  let f = diamond () in
  let ws = Loss.completions f ~from:0 "w" ~max_losses:1 ~max_count:2 in
  Alcotest.(check int) "two witnesses" 2 (List.length ws);
  Alcotest.(check bool) "distinct" true (List.nth ws 0 <> List.nth ws 1);
  List.iter
    (fun w ->
      let _, _, l = List.nth w (List.length w - 1) in
      Alcotest.(check string) "ends with observed label" "w" l)
    ws

let loss_radius_terminates_on_cycles () =
  (* A cycle unrelated to the site must not loop the analysis: the capped
     count vector repeats with an unchanged total, which is the infinite-
     radius certificate. *)
  let f = Fsm.create ~n_states:3 ~initial:0 in
  Fsm.add_transition f ~src:0 ~dst:1 "a";
  Fsm.add_transition f ~src:1 ~dst:2 "l";
  Fsm.add_transition f ~src:2 ~dst:2 "c";
  Alcotest.(check (option int)) "safe" None (Loss.radius f ~from:0 "l");
  (* A cycle feeding the site's label does open completions eventually. *)
  let g = Fsm.create ~n_states:3 ~initial:0 in
  Fsm.add_transition g ~src:0 ~dst:1 "a";
  Fsm.add_transition g ~src:1 ~dst:0 "b";
  Fsm.add_transition g ~src:1 ~dst:2 "l";
  Alcotest.(check (option int)) "k=3 via the cycle" (Some 3)
    (Loss.radius g ~from:0 "l")

let loss_pass_codes () =
  let diags = Check.loss_radius (model_of [ ("r", diamond ()) ]) in
  Alcotest.(check int) "one LOSS001" 1
    (List.length (Diagnostic.by_code "LOSS001" diags));
  Alcotest.(check int) "one LOSS002" 1
    (List.length (Diagnostic.by_code "LOSS002" diags));
  Alcotest.(check bool) "summary" true (has_code "LOSS000" diags);
  (match Diagnostic.by_code "LOSS002" diags with
  | [ d ] -> Alcotest.(check (list (pair string int))) "k payload" [ ("k", 2) ] d.data
  | _ -> Alcotest.fail "expected exactly one LOSS002");
  let clean = Check.loss_radius (model_of [ ("r", chain [ "a"; "b"; "c" ]) ]) in
  Alcotest.(check int) "chain has no loss findings" 0 (warnings clean + errors clean)

(* -- Pass 6: product-automaton ambiguity ------------------------------------- *)

(* 0 -l-> 1 and 0 -a-> 2 -l-> 3: losing "a" makes the two l-paths project
   identically, so belief states 1 and 3 are confusable.  With the extra
   3 -d-> 4 edge the observation "d" tells them apart. *)
let split ?(dedge = false) () =
  let f = Fsm.create ~n_states:5 ~initial:0 in
  Fsm.add_transition f ~src:0 ~dst:1 "l";
  Fsm.add_transition f ~src:0 ~dst:2 "a";
  Fsm.add_transition f ~src:2 ~dst:3 "l";
  if dedge then Fsm.add_transition f ~src:3 ~dst:4 "d";
  f

let product_pair_equivalent () =
  match Product.confusable_pairs (split ()) with
  | [ p ] ->
      Alcotest.(check (pair int int)) "pair" (1, 3) (p.left, p.right);
      Alcotest.(check int) "seeded at 0" 0 p.seed_state;
      Alcotest.(check bool) "no distinguisher" true (p.distinguisher = None)
  | ps -> Alcotest.failf "expected one pair, got %d" (List.length ps)

let product_pair_distinguishable () =
  match Product.confusable_pairs (split ~dedge:true ()) with
  | [ p ] ->
      Alcotest.(check (option (list string))) "minimal distinguisher"
        (Some [ "d" ]) p.distinguisher
  | ps -> Alcotest.failf "expected one pair, got %d" (List.length ps)

let product_diamond_on_normal_edge () =
  (* The l-edge from 0 is normal, but one lost "a" opens the longer l-path:
     the engine silently prefers the normal edge. *)
  match Product.diamonds (split ()) with
  | [ d ] ->
      Alcotest.(check int) "at state 0" 0 d.d_state;
      Alcotest.(check string) "on l" "l" d.d_label;
      Alcotest.(check int) "k=1" 1 d.d_radius;
      Alcotest.(check int) "two witnesses" 2 (List.length d.d_witnesses)
  | ds -> Alcotest.failf "expected one diamond, got %d" (List.length ds)

let product_pass_codes () =
  let d_equiv = Check.product_ambiguity (model_of [ ("r", split ()) ]) in
  Alcotest.(check bool) "AMB002" true (has_code "AMB002" d_equiv);
  Alcotest.(check bool) "no AMB001" false (has_code "AMB001" d_equiv);
  let d_dist = Check.product_ambiguity (model_of [ ("r", split ~dedge:true ()) ]) in
  Alcotest.(check bool) "AMB001" true (has_code "AMB001" d_dist);
  Alcotest.(check bool) "summary" true (has_code "AMB000" d_dist);
  let clean = Check.product_ambiguity (model_of [ ("r", chain [ "a"; "b" ]) ]) in
  Alcotest.(check int) "chain silent" 0 (warnings clean + errors clean)

let product_prereq_alternatives () =
  let m =
    model_of
      ~prerequisites:(fun ~role label ->
        if role = "a" && label = "b" then [ ("b", 1); ("b", 2) ] else [])
      [ ("a", chain [ "a"; "b" ]); ("b", chain [ "p"; "q" ]) ]
  in
  let diags = Check.product_ambiguity m in
  (match Diagnostic.by_code "AMB003" diags with
  | [ d ] ->
      Alcotest.(check (list (pair string int)))
        "alternatives payload" [ ("alternatives", 2) ] d.data
  | _ -> Alcotest.fail "expected exactly one AMB003");
  (* An unsatisfiable alternative does not count towards the ambiguity. *)
  let m1 =
    model_of
      ~prerequisites:(fun ~role label ->
        if role = "a" && label = "b" then [ ("b", 1); ("b", 99) ] else [])
      [ ("a", chain [ "a"; "b" ]); ("b", chain [ "p"; "q" ]) ]
  in
  Alcotest.(check bool) "single satisfiable alternative is fine" false
    (has_code "AMB003" (Check.product_ambiguity m1))

(* -- Built-in models -------------------------------------------------------- *)

(* CTP is clean under the first four pass families; the loss passes
   correctly find the paper's Table-II ambiguities, the sharpest being
   (sent, recv): a single lost ack or timeout both complete to holding. *)
let builtin_ctp_expected () =
  let diags = Check.run Builtin.ctp in
  let old_families =
    List.filter
      (fun (d : Diagnostic.t) ->
        not
          (List.exists
             (fun p -> String.length d.code >= String.length p
                       && String.sub d.code 0 (String.length p) = p)
             [ "LOSS"; "AMB" ]))
      diags
  in
  Alcotest.(check int) "first four families: no errors" 0 (errors old_families);
  Alcotest.(check int) "first four families: no warnings" 0
    (warnings old_families);
  (* The role-level recv->sent / ack->holding loop is real and reported. *)
  Alcotest.(check bool) "cycle noted" true (has_code "PRE004" diags);
  (match Diagnostic.by_code "LOSS001" diags with
  | [ a; b ] ->
      List.iter
        (fun (d : Diagnostic.t) ->
          Alcotest.(check (option string)) "at sent" (Some "sent") d.loc.state;
          Alcotest.(check (option string)) "on recv" (Some "recv") d.loc.label;
          Alcotest.(check (list (pair string int))) "k=1" [ ("k", 1) ] d.data)
        [ a; b ];
      Alcotest.(check (list (option string)))
        "origin and forwarder"
        [ Some "forwarder"; Some "origin" ]
        [ a.loc.role; b.loc.role ]
  | l -> Alcotest.failf "expected exactly two LOSS001, got %d" (List.length l));
  Alcotest.(check int) "errors are exactly the LOSS001 pair" 2 (errors diags);
  Alcotest.(check bool) "finite radii reported" true (has_code "LOSS002" diags);
  Alcotest.(check bool) "recv sender ambiguous" true (has_code "AMB003" diags)

let builtin_dissem_expected () =
  let diags = Check.run Builtin.dissem in
  Alcotest.(check int) "no errors" 0 (errors diags);
  List.iter
    (fun (d : Diagnostic.t) ->
      if d.severity = Diagnostic.Warning then
        Alcotest.(check bool)
          ("warning is a loss/ambiguity finding: " ^ d.code)
          true
          (List.mem d.code [ "LOSS002"; "AMB001"; "AMB002" ]))
    diags;
  (* The rx_adv self-loops make later receiver states confusable with
     earlier ones, but a surviving req/done record tells them apart. *)
  Alcotest.(check bool) "AMB001" true (has_code "AMB001" diags);
  Alcotest.(check bool) "AMB002" true (has_code "AMB002" diags);
  Alcotest.(check bool) "LOSS002" true (has_code "LOSS002" diags);
  Alcotest.(check bool) "no single-drop site" false (has_code "LOSS001" diags)

let builtin_broken_fires () =
  let diags = Check.run Builtin.broken in
  List.iter
    (fun c ->
      Alcotest.(check bool) ("has " ^ c) true (has_code c diags))
    [
      "FSM001"; "FSM002"; "FSM004"; "INT001"; "PRE001"; "CLS001"; "LOSS001";
      "LOSS002"; "AMB001";
    ];
  Alcotest.(check bool) "nonzero errors" true (errors diags > 0)

(* The expected-diagnostics fixture: broken-demo's known ambiguity sites,
   pinned to exact codes, locations, and k values.  A diagnostic drifting
   here means the analysis changed, not the model. *)
let broken_expected_sites () =
  let diags = Check.run Builtin.broken in
  (match Diagnostic.by_code "LOSS001" diags with
  | [ d ] ->
      Alcotest.(check (option string)) "role c" (Some "c") d.loc.role;
      Alcotest.(check (option string)) "state s0" (Some "s0") d.loc.state;
      Alcotest.(check (option string)) "label w" (Some "w") d.loc.label;
      Alcotest.(check (list (pair string int))) "k=1" [ ("k", 1) ] d.data
  | l -> Alcotest.failf "expected one LOSS001, got %d" (List.length l));
  (match Diagnostic.by_code "LOSS002" diags with
  | [ d ] ->
      Alcotest.(check (option string)) "role c" (Some "c") d.loc.role;
      Alcotest.(check (option string)) "state s0" (Some "s0") d.loc.state;
      Alcotest.(check (option string)) "label z" (Some "z") d.loc.label;
      Alcotest.(check (list (pair string int))) "k=2" [ ("k", 2) ] d.data
  | l -> Alcotest.failf "expected one LOSS002, got %d" (List.length l));
  (match Diagnostic.by_code "AMB001" diags with
  | [ d ] ->
      Alcotest.(check (option string)) "role a" (Some "a") d.loc.role;
      Alcotest.(check (option string)) "pair s1|s2" (Some "s1|s2") d.loc.state
  | l -> Alcotest.failf "expected one AMB001, got %d" (List.length l));
  (* The two safe sites of role c stay out of the report (summary only). *)
  let c_summaries =
    List.filter
      (fun (d : Diagnostic.t) ->
        d.code = "LOSS000" && d.loc.role = Some "c")
      diags
  in
  match c_summaries with
  | [ d ] ->
      Alcotest.(check bool) "2 safe sites counted" true
        (let msg = d.message in
         let n = String.length msg in
         let needle = "2 safe" in
         let ln = String.length needle in
         let rec scan i = i + ln <= n && (String.sub msg i ln = needle || scan (i + 1)) in
         scan 0)
  | _ -> Alcotest.fail "expected one LOSS000 for role c"

let run_is_sorted () =
  let sorted name diags =
    Alcotest.(check bool)
      (name ^ " sorted by (code, location)")
      true
      (List.stable_sort Diagnostic.compare_diag diags = diags)
  in
  sorted "ctp" (Check.run Builtin.ctp);
  sorted "dissem" (Check.run Builtin.dissem);
  sorted "broken-demo" (Check.run Builtin.broken)

let registry () =
  Alcotest.(check (list string))
    "defaults" [ "ctp"; "dissem" ] Builtin.default_names;
  Alcotest.(check bool) "broken-demo known" true
    (List.mem "broken-demo" Builtin.names);
  Alcotest.(check bool) "unknown rejected" true (Builtin.run_model "nope" = None);
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " has dots") true
        (Builtin.dots name <> []))
    Builtin.names

(* The CTP model's static frontier_cause must agree with the live
   classifier: for every frontier state the model claims is classified,
   a flow ending there must get a non-Unknown verdict. *)
let ctp_frontier_matches_classify () =
  let item ?(inferred = false) label entered : Refill.Flow.item =
    { node = 1; label; payload = None; inferred; entered }
  in
  let flow items =
    Refill.Flow.of_items ~origin:1 ~seq:0
      ~stats:{ emitted_logged = 0; emitted_inferred = 0; skipped = 0 }
      items
  in
  let cases =
    [
      (P.holding, [ item P.L_recv P.holding ]);
      (P.sent, [ item P.L_recv P.holding; item P.L_trans P.sent ]);
      ( P.acked,
        [
          item P.L_recv P.holding; item P.L_trans P.sent; item P.L_ack P.acked;
        ] );
      ( P.timed_out,
        [
          item P.L_recv P.holding;
          item P.L_trans P.sent;
          item P.L_timeout P.timed_out;
        ] );
      ( P.dup_dropped,
        [ item P.L_recv P.holding; item ~inferred:true P.L_dup P.dup_dropped ]
      );
      (P.overflow_dropped, [ item P.L_overflow P.overflow_dropped ]);
      (P.delivered, [ item P.L_recv P.holding; item P.L_deliver P.delivered ]);
    ]
  in
  let ctp_cause =
    (List.hd Builtin.ctp.Model.roles).Model.frontier_cause
  in
  List.iter
    (fun (state, items) ->
      let v = Refill.Classify.classify (flow items) in
      Alcotest.(check bool)
        (Printf.sprintf "state %s classified both ways" (P.state_name state))
        true
        (ctp_cause state <> None
        && not (Logsys.Cause.equal v.cause Logsys.Cause.Unknown)))
    cases

(* -- Report formats --------------------------------------------------------- *)

let json_report_roundtrips () =
  let results = [ ("broken-demo", Check.run Builtin.broken) ] in
  let doc = Refill_obs.Json.to_string (Check.to_json results) in
  match Refill_obs.Json.parse doc with
  | Error e -> Alcotest.failf "unparseable report: %s" e
  | Ok j ->
      let module J = Refill_obs.Json in
      (match J.member "format" j with
      | Some (J.Str "refill-check-v1") -> ()
      | _ -> Alcotest.fail "missing or wrong format field");
      (match J.member "errors" j with
      | Some (J.Num n) ->
          Alcotest.(check bool) "errors > 0" true (n > 0.)
      | _ -> Alcotest.fail "no errors field");
      (match J.member "models" j with
      | Some (J.Arr [ m ]) -> (
          match J.member "name" m with
          | Some (J.Str "broken-demo") -> ()
          | _ -> Alcotest.fail "model name")
      | _ -> Alcotest.fail "models array")

let text_report_mentions_codes () =
  let txt = Check.to_text [ ("broken-demo", Check.run Builtin.broken) ] in
  List.iter
    (fun needle ->
      let contains =
        let n = String.length needle and h = String.length txt in
        let rec scan i =
          i + n <= h && (String.sub txt i n = needle || scan (i + 1))
        in
        scan 0
      in
      Alcotest.(check bool) ("mentions " ^ needle) true contains)
    [ "PRE001"; "CLS001"; "error(s)" ]

(* -- qcheck: generated well-formed FSMs and seeded mutations ---------------- *)

(* Arborescence rooted at 0 with one globally unique label per edge: every
   state reachable, deterministic, unambiguous — well-formed by
   construction. *)
let arborescence parents =
  let n = List.length parents + 1 in
  let f = Fsm.create ~n_states:n ~initial:0 in
  List.iteri
    (fun i p ->
      let child = i + 1 in
      Fsm.add_transition f ~src:(p mod child) ~dst:child
        ("l" ^ string_of_int child))
    parents;
  f

let parents_gen = QCheck.(list_of_size (Gen.int_range 1 7) (int_range 0 1000))

let wellformed_pass_clean =
  QCheck.Test.make ~name:"well-formed FSMs check clean" ~count:200 parents_gen
    (fun parents ->
      let diags = Check.run (model_of [ ("r", arborescence parents) ]) in
      errors diags = 0 && warnings diags = 0
      (* In particular the loss/ambiguity passes stay silent: every
         completion in an arborescence with unique labels is unique. *)
      && List.for_all
           (fun c -> not (has_code c diags))
           [ "LOSS001"; "LOSS002"; "AMB001"; "AMB002"; "AMB003" ])

let mutation_orphan =
  QCheck.Test.make ~name:"orphaned state => FSM001" ~count:100 parents_gen
    (fun parents ->
      let f = arborescence parents in
      let n = Fsm.n_states f in
      (* Re-number into a bigger graph leaving a state with an out-edge but
         no path from the initial state. *)
      let f' = Fsm.create ~n_states:(n + 1) ~initial:0 in
      List.iter
        (fun (s, d, l) -> Fsm.add_transition f' ~src:s ~dst:d l)
        (Fsm.transitions f);
      Fsm.add_transition f' ~src:n ~dst:0 "orphan-edge";
      has_code "FSM001" (Check.run (model_of [ ("r", f') ])))

let mutation_duplicate_edge =
  QCheck.Test.make ~name:"duplicate (src,label) => FSM004" ~count:100
    parents_gen (fun parents ->
      let f = arborescence parents in
      match Fsm.transitions f with
      | [] -> QCheck.assume_fail ()
      | (src, dst, label) :: _ ->
          let other = if dst = 0 then 1 else 0 in
          Fsm.add_transition f ~src ~dst:other label;
          has_code "FSM004" (Check.run (model_of [ ("r", f) ])))

let mutation_shortcut_diamond =
  QCheck.Test.make ~name:"seeded shortcutable diamond => LOSS001" ~count:100
    parents_gen (fun parents ->
      let f = arborescence parents in
      let n = Fsm.n_states f in
      (* Graft a diamond onto the root: two fresh branches that join on a
         fresh label — from the root, one lost record leaves the join label
         two completions. *)
      let f' = Fsm.create ~n_states:(n + 3) ~initial:0 in
      List.iter
        (fun (s, d, l) -> Fsm.add_transition f' ~src:s ~dst:d l)
        (Fsm.transitions f);
      Fsm.add_transition f' ~src:0 ~dst:n "dia-left";
      Fsm.add_transition f' ~src:0 ~dst:(n + 1) "dia-right";
      Fsm.add_transition f' ~src:n ~dst:(n + 2) "dia-join";
      Fsm.add_transition f' ~src:(n + 1) ~dst:(n + 2) "dia-join";
      let diags = Check.run (model_of [ ("r", f') ]) in
      List.exists
        (fun (d : Diagnostic.t) ->
          d.code = "LOSS001" && d.loc.label = Some "dia-join"
          && d.data = [ ("k", 1) ])
        diags)

let mutation_duplicate_projection =
  QCheck.Test.make ~name:"seeded duplicate-projection edge => AMB002"
    ~count:100 parents_gen (fun parents ->
      let f = arborescence parents in
      match Fsm.transitions f with
      | [] -> QCheck.assume_fail ()
      | (src, dst, label) :: _ ->
          (* A self-loop re-using the tree edge's label: the paths src->dst
             and src->dst->dst project identically once the loop record is
             lost, a diamond through the normal edge. *)
          Fsm.add_transition f ~src:dst ~dst label;
          let diags = Check.run (model_of [ ("r", f) ]) in
          List.exists
            (fun (d : Diagnostic.t) ->
              d.code = "AMB002"
              && d.loc.state = Some ("s" ^ string_of_int src)
              && d.loc.label = Some label)
            diags)

let mutation_cut_prereq =
  QCheck.Test.make ~name:"deleting the edge into a prereq state => PRE001"
    ~count:100 parents_gen (fun parents ->
      let n = List.length parents + 1 in
      if n < 2 then QCheck.assume_fail ()
      else begin
        (* Remote role: the arborescence *without* the single edge into its
           last state — that state is the prerequisite target. *)
        let full = arborescence parents in
        let cut = Fsm.create ~n_states:n ~initial:0 in
        List.iter
          (fun (s, d, l) ->
            if d <> n - 1 then Fsm.add_transition cut ~src:s ~dst:d l)
          (Fsm.transitions full);
        let m =
          model_of
            ~prerequisites:(fun ~role label ->
              if role = "a" && label = "go" then [ ("b", n - 1) ] else [])
            [ ("a", chain [ "go" ]); ("b", cut) ]
        in
        has_code "PRE001" (Check.prereq_graph m)
      end)

let () =
  Alcotest.run "refill-check"
    [
      ( "well-formedness",
        [
          Alcotest.test_case "clean chain" `Quick wf_clean;
          Alcotest.test_case "orphan state" `Quick wf_orphan_state;
          Alcotest.test_case "dead end w/o cause" `Quick wf_dead_end_no_cause;
          Alcotest.test_case "label never fires" `Quick wf_label_never_fires;
          Alcotest.test_case "nondeterministic pair" `Quick wf_nondeterministic;
        ] );
      ( "intra-audit",
        [
          Alcotest.test_case "clean chain" `Quick intra_clean_chain;
          Alcotest.test_case "ambiguous targets" `Quick intra_ambiguous;
          Alcotest.test_case "blind spot" `Quick intra_blind_spot;
        ] );
      ( "prereq-graph",
        [
          Alcotest.test_case "satisfiable" `Quick prereq_clean;
          Alcotest.test_case "unreachable target" `Quick
            prereq_unreachable_target;
          Alcotest.test_case "unknown role" `Quick prereq_unknown_role;
          Alcotest.test_case "out of range" `Quick prereq_out_of_range;
          Alcotest.test_case "cycle is info" `Quick prereq_cycle;
        ] );
      ( "classification",
        [
          Alcotest.test_case "total" `Quick class_total;
          Alcotest.test_case "gap" `Quick class_gap;
          Alcotest.test_case "gap outside frontier" `Quick
            class_gap_outside_frontier_ok;
        ] );
      ( "loss-radius",
        [
          Alcotest.test_case "radius values" `Quick loss_radius_values;
          Alcotest.test_case "distinct witnesses" `Quick
            loss_witnesses_distinct;
          Alcotest.test_case "terminates on cycles" `Quick
            loss_radius_terminates_on_cycles;
          Alcotest.test_case "pass codes" `Quick loss_pass_codes;
        ] );
      ( "product",
        [
          Alcotest.test_case "equivalent pair" `Quick product_pair_equivalent;
          Alcotest.test_case "distinguishable pair" `Quick
            product_pair_distinguishable;
          Alcotest.test_case "diamond on normal edge" `Quick
            product_diamond_on_normal_edge;
          Alcotest.test_case "pass codes" `Quick product_pass_codes;
          Alcotest.test_case "prereq alternatives" `Quick
            product_prereq_alternatives;
        ] );
      ( "builtins",
        [
          Alcotest.test_case "ctp expected findings" `Quick
            builtin_ctp_expected;
          Alcotest.test_case "dissem expected findings" `Quick
            builtin_dissem_expected;
          Alcotest.test_case "broken fixture fires" `Quick
            builtin_broken_fires;
          Alcotest.test_case "broken expected sites" `Quick
            broken_expected_sites;
          Alcotest.test_case "reports are sorted" `Quick run_is_sorted;
          Alcotest.test_case "registry" `Quick registry;
          Alcotest.test_case "ctp causes match Classify" `Quick
            ctp_frontier_matches_classify;
        ] );
      ( "reports",
        [
          Alcotest.test_case "json" `Quick json_report_roundtrips;
          Alcotest.test_case "text" `Quick text_report_mentions_codes;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest wellformed_pass_clean;
          QCheck_alcotest.to_alcotest mutation_orphan;
          QCheck_alcotest.to_alcotest mutation_duplicate_edge;
          QCheck_alcotest.to_alcotest mutation_shortcut_diamond;
          QCheck_alcotest.to_alcotest mutation_duplicate_projection;
          QCheck_alcotest.to_alcotest mutation_cut_prereq;
        ] );
    ]
