module Obs = Refill_obs
module P = Refill.Provenance

let c_flows =
  Obs.Metrics.Counter.v "refill_flow_quality_flows_total"
    ~help:"Flows folded into quality reports."

let c_complete =
  Obs.Metrics.Counter.v "refill_flow_quality_complete_total"
    ~help:"Quality-scored flows whose classifier reached a verdict."

let c_incomplete =
  Obs.Metrics.Counter.v "refill_flow_quality_incomplete_total"
    ~help:"Quality-scored flows with no classifier verdict."

let g_fraction_inferred =
  Obs.Metrics.Gauge.v "refill_flow_quality_fraction_inferred"
    ~help:"Inferred share of events in the last finished quality report."

type flow_score = {
  f_origin : int;
  f_seq : int;
  f_events : int;
  f_inferred : int;
  f_complete : bool;
  f_min_confidence : P.confidence;
}

type node_score = { n_node : int; n_events : int; n_inferred : int }

type link_score = { l_src : int; l_dst : int; l_events : int; l_inferred : int }

type t = {
  packets : int;
  events : int;
  inferred : int;
  complete : int;
  incomplete : int;
  mechanism_totals : (P.mechanism * int) list;
  confidence_totals : (P.confidence * int) list;
  flows : flow_score list;
  nodes : node_score list;
  links : link_score list;
}

let mechanisms =
  [ P.Logged; P.Intra_inference; P.Inter_inference; P.Stall_recovery;
    P.Anchor_carry ]

let confidences = [ P.Certain; P.High; P.Medium; P.Low ]

let mech_rank = function
  | P.Logged -> 0
  | P.Intra_inference -> 1
  | P.Inter_inference -> 2
  | P.Stall_recovery -> 3
  | P.Anchor_carry -> 4

let conf_rank = function
  | P.Certain -> 0
  | P.High -> 1
  | P.Medium -> 2
  | P.Low -> 3

let weaker a b = if conf_rank b > conf_rank a then b else a

type acc = {
  mutable a_packets : int;
  mutable a_events : int;
  mutable a_inferred : int;
  mutable a_complete : int;
  mech_counts : int array;  (* indexed by mech_rank *)
  conf_counts : int array;  (* indexed by conf_rank *)
  mutable flows_rev : flow_score list;
  node_tbl : (int, node_score) Hashtbl.t;
  link_tbl : (int * int, link_score) Hashtbl.t;
}

let create () =
  {
    a_packets = 0;
    a_events = 0;
    a_inferred = 0;
    a_complete = 0;
    mech_counts = Array.make (List.length mechanisms) 0;
    conf_counts = Array.make (List.length confidences) 0;
    flows_rev = [];
    node_tbl = Hashtbl.create 64;
    link_tbl = Hashtbl.create 64;
  }

(* Flows reconstructed without provenance still score: the [inferred] flag
   distinguishes logged from inferred, and an inferred event without a
   recorded mechanism is attributed to intra-inference (the engine's
   default local bridge). *)
let item_prov (it : Refill.Flow.item) =
  if it.inferred then P.make P.Intra_inference ~src:it.entered ~dst:it.entered ~evidence:[||]
  else P.make P.Logged ~src:it.entered ~dst:it.entered ~evidence:[||]

let add acc (f : Refill.Flow.t) =
  let n_prov = Array.length f.prov in
  let events = ref 0 and inferred = ref 0 in
  let min_conf = ref P.Certain in
  List.iteri
    (fun pos (it : Refill.Flow.item) ->
      let pv = if pos < n_prov then f.prov.(pos) else item_prov it in
      incr events;
      if it.inferred then incr inferred;
      acc.mech_counts.(mech_rank (P.mechanism pv)) <-
        acc.mech_counts.(mech_rank (P.mechanism pv)) + 1;
      acc.conf_counts.(conf_rank (P.confidence pv)) <-
        acc.conf_counts.(conf_rank (P.confidence pv)) + 1;
      min_conf := weaker !min_conf (P.confidence pv);
      (* Per-node scorecard. *)
      if it.node >= 0 then begin
        let ns =
          match Hashtbl.find_opt acc.node_tbl it.node with
          | Some ns -> ns
          | None -> { n_node = it.node; n_events = 0; n_inferred = 0 }
        in
        Hashtbl.replace acc.node_tbl it.node
          {
            ns with
            n_events = ns.n_events + 1;
            n_inferred = (ns.n_inferred + if it.inferred then 1 else 0);
          }
      end;
      (* Per-link gap evidence. *)
      match Option.bind it.payload Logsys.Record.link with
      | Some (src, dst) when src >= 0 && dst >= 0 && src <> dst ->
          let key = (src, dst) in
          let ls =
            match Hashtbl.find_opt acc.link_tbl key with
            | Some ls -> ls
            | None -> { l_src = src; l_dst = dst; l_events = 0; l_inferred = 0 }
          in
          Hashtbl.replace acc.link_tbl key
            {
              ls with
              l_events = ls.l_events + 1;
              l_inferred = (ls.l_inferred + if it.inferred then 1 else 0);
            }
      | Some _ | None -> ())
    (Refill.Flow.items f);
  let complete =
    (Refill.Classify.classify f).cause <> Logsys.Cause.Unknown
  in
  acc.a_packets <- acc.a_packets + 1;
  acc.a_events <- acc.a_events + !events;
  acc.a_inferred <- acc.a_inferred + !inferred;
  if complete then acc.a_complete <- acc.a_complete + 1;
  acc.flows_rev <-
    {
      f_origin = f.origin;
      f_seq = f.seq;
      f_events = !events;
      f_inferred = !inferred;
      f_complete = complete;
      f_min_confidence = !min_conf;
    }
    :: acc.flows_rev

let fraction_inferred t =
  if t.events = 0 then 0.
  else float_of_int t.inferred /. float_of_int t.events

let link_loss_rate (l : link_score) =
  if l.l_events = 0 then 0.
  else float_of_int l.l_inferred /. float_of_int l.l_events

let finish acc =
  let nodes =
    Hashtbl.fold (fun _ ns l -> ns :: l) acc.node_tbl []
    |> List.sort (fun a b -> Int.compare a.n_node b.n_node)
  in
  let links =
    Hashtbl.fold (fun _ ls l -> ls :: l) acc.link_tbl []
    |> List.sort (fun a b ->
           compare (a.l_src, a.l_dst) (b.l_src, b.l_dst))
  in
  let t =
    {
      packets = acc.a_packets;
      events = acc.a_events;
      inferred = acc.a_inferred;
      complete = acc.a_complete;
      incomplete = acc.a_packets - acc.a_complete;
      mechanism_totals =
        List.map (fun m -> (m, acc.mech_counts.(mech_rank m))) mechanisms;
      confidence_totals =
        List.map (fun c -> (c, acc.conf_counts.(conf_rank c))) confidences;
      flows = List.rev acc.flows_rev;
      nodes;
      links;
    }
  in
  Obs.Metrics.Counter.inc ~by:t.packets c_flows;
  Obs.Metrics.Counter.inc ~by:t.complete c_complete;
  Obs.Metrics.Counter.inc ~by:t.incomplete c_incomplete;
  Obs.Metrics.Gauge.set g_fraction_inferred (fraction_inferred t);
  t

let to_json t =
  let module J = Obs.Json in
  let num i = J.Num (float_of_int i) in
  J.Obj
    [
      ("schema", J.Str "refill-quality-v1");
      ("packets", num t.packets);
      ("events", num t.events);
      ("inferred", num t.inferred);
      ("fraction_inferred", J.Num (fraction_inferred t));
      ("complete", num t.complete);
      ("incomplete", num t.incomplete);
      ( "mechanisms",
        J.Obj
          (List.map
             (fun (m, n) -> (P.mechanism_name m, num n))
             t.mechanism_totals) );
      ( "confidences",
        J.Obj
          (List.map
             (fun (c, n) -> (P.confidence_name c, num n))
             t.confidence_totals) );
      ( "nodes",
        J.Arr
          (List.map
             (fun ns ->
               J.Obj
                 [
                   ("node", num ns.n_node);
                   ("events", num ns.n_events);
                   ("inferred", num ns.n_inferred);
                 ])
             t.nodes) );
      ( "links",
        J.Arr
          (List.map
             (fun ls ->
               J.Obj
                 [
                   ("src", num ls.l_src);
                   ("dst", num ls.l_dst);
                   ("events", num ls.l_events);
                   ("inferred", num ls.l_inferred);
                   ("loss_rate", J.Num (link_loss_rate ls));
                 ])
             t.links) );
      ( "flows",
        J.Arr
          (List.map
             (fun fs ->
               J.Obj
                 [
                   ("origin", num fs.f_origin);
                   ("seq", num fs.f_seq);
                   ("events", num fs.f_events);
                   ("inferred", num fs.f_inferred);
                   ("complete", J.Bool fs.f_complete);
                   ( "min_confidence",
                     J.Str (P.confidence_name fs.f_min_confidence) );
                 ])
             t.flows) );
    ]

let to_string t =
  let b = Buffer.create 1024 in
  let pct n d =
    if d = 0 then 0. else 100. *. float_of_int n /. float_of_int d
  in
  Printf.bprintf b "flow quality: %d packets, %d events (%.1f%% inferred)\n"
    t.packets t.events (pct t.inferred t.events);
  Printf.bprintf b "  complete %d / incomplete %d\n" t.complete t.incomplete;
  Printf.bprintf b "  mechanisms:";
  List.iter
    (fun (m, n) ->
      if n > 0 then Printf.bprintf b " %s=%d" (P.mechanism_name m) n)
    t.mechanism_totals;
  Buffer.add_char b '\n';
  Printf.bprintf b "  confidence:";
  List.iter
    (fun (c, n) ->
      if n > 0 then Printf.bprintf b " %s=%d" (P.confidence_name c) n)
    t.confidence_totals;
  Buffer.add_char b '\n';
  (* The handful of most-inferred nodes and lossiest links, the operator's
     "where should I look first" view. *)
  let top k cmp l = List.filteri (fun i _ -> i < k) (List.sort cmp l) in
  let worst_nodes =
    top 5
      (fun a b ->
        compare
          (pct b.n_inferred b.n_events, b.n_events)
          (pct a.n_inferred a.n_events, a.n_events))
      (List.filter (fun ns -> ns.n_inferred > 0) t.nodes)
  in
  if worst_nodes <> [] then begin
    Printf.bprintf b "  most-inferred nodes:";
    List.iter
      (fun ns ->
        Printf.bprintf b " n%d=%.0f%%(%d/%d)" ns.n_node
          (pct ns.n_inferred ns.n_events)
          ns.n_inferred ns.n_events)
      worst_nodes;
    Buffer.add_char b '\n'
  end;
  let worst_links =
    top 5
      (fun a b ->
        compare
          (link_loss_rate b, b.l_events)
          (link_loss_rate a, a.l_events))
      (List.filter (fun ls -> ls.l_inferred > 0) t.links)
  in
  if worst_links <> [] then begin
    Printf.bprintf b "  lossiest links:";
    List.iter
      (fun ls ->
        Printf.bprintf b " %d->%d=%.0f%%(%d/%d)" ls.l_src ls.l_dst
          (100. *. link_loss_rate ls)
          ls.l_inferred ls.l_events)
      worst_links;
    Buffer.add_char b '\n'
  end;
  Buffer.contents b
