module Obs = Refill_obs

(* The engine's own event stream: run-local [stats] are counted locally
   and flushed into these process-wide counters in one batch when the run
   completes, so the same numbers flow to `--metrics` dumps and to callers
   — and runs on worker domains stay exact (the counters are atomic). *)
let c_logged =
  Obs.Metrics.Counter.v "refill_logged_events_total"
    ~help:"Input log events fired by the inference engines."

let c_inferred =
  Obs.Metrics.Counter.v "refill_inferred_events_total"
    ~help:"Lost events reconstructed by the inference engines."

let c_skipped =
  Obs.Metrics.Counter.v "refill_skipped_events_total"
    ~help:"Input log events with no available transition."

let c_cascades =
  Obs.Metrics.Counter.v "refill_prereq_cascades_total"
    ~help:"Prerequisite engine drives started (inter-node cascades)."

(* Counted here, not in Fsm.infer_intra: consume_helps probes the same
   derivation speculatively while deciding whether a pending record helps a
   drive, and those probes must not inflate the metric — only intra
   transitions the engine actually takes count. *)
let c_intra =
  Obs.Metrics.Counter.v "refill_intra_inferences_total"
    ~help:"Intra-node transitions taken (lost-path bridges actually emitted)."

let h_drive_depth =
  Obs.Metrics.Histogram.v "refill_drive_depth"
    ~help:"Recursion depth of prerequisite drives."
    ~buckets:(Obs.Metrics.Histogram.log_buckets ~lo:1. ~hi:1024. ~factor:2.)

(* Engine-side provenance mechanisms, flushed (only on provenance-enabled
   runs) in the same batch as the tallies above.  The engine knows
   each emission's mechanism statically, so these cost nothing per event —
   no decoding pass over the side-car.  Merge-time mechanisms
   (stall-recovery, anchor-carry) are counted by Global_flow, which
   decides them. *)
let c_prov_mech mech =
  Obs.Metrics.Counter.v "refill_provenance_events_total"
    ~help:"Events emitted per provenance mechanism (provenance-enabled runs)."
    ~labels:[ ("mechanism", Provenance.mechanism_name mech) ]

let c_prov_logged = c_prov_mech Provenance.Logged

let c_prov_intra = c_prov_mech Provenance.Intra_inference

let c_prov_inter = c_prov_mech Provenance.Inter_inference

type ('label, 'payload) item = {
  node : int;
  label : 'label;
  payload : 'payload option;
  inferred : bool;
  entered : Fsm_state.t;
}

type ('label, 'payload) config = {
  fsm_of : int -> 'label Fsm.t;
  prerequisites :
    node:int ->
    label:'label ->
    payload:'payload option ->
    (int * Fsm_state.t) list;
  infer_payload : node:int -> label:'label -> 'payload option;
}

type stats = {
  emitted_logged : int;
  emitted_inferred : int;
  skipped : int;
}

type ('label, 'payload) input =
  | Events of (int * 'label * 'payload option) array
  | Packed of {
      nodes : int array;
      labels : 'label array;
      ids : int array;
      payloads : 'payload option array;
      pre_nodes : int array;
      pre_states : Fsm_state.t array;
      srcs : int array;
    }

(* [visited] is a plain bool array indexed by state, and [pending] a list
   of ascending indices into the event array: per-packet instances are
   created and torn down a million times per CitySee run, so the per-event
   bookkeeping must not hash or allocate. *)
type ('label, 'payload) instance = {
  fsm : 'label Fsm.t;
  mutable state : Fsm_state.t;
  visited : bool array;
  driving : bool array;
      (* cycle guard: target states this instance is currently being
         driven toward (the recursion can only cycle through in-range
         states, so a per-instance flag array suffices) *)
  mutable pending : int list;  (* indices into the event array, local order *)
  mutable last_rec : int;
      (* provenance: source index of the last input event fired on this
         instance (-1 = none yet) — the local record bracketing any gap
         bridged on this node *)
}

(* One mutable context per run, threaded explicitly through top-level
   functions: the engine runs once per packet — a million times per
   CitySee reconstruction — and a closure group capturing a dozen refs
   costs hundreds of words per packet where this record costs one
   allocation. *)
type ('label, 'payload) ctx = {
  cfg : ('label, 'payload) config;
  use_intra : bool;
  labels : 'label array;
  payloads : 'payload option array;
  ids : int array;  (* per event: its label's dense id in its node's FSM *)
  (* Per-event inter-node prerequisite, resolved by the caller (packed
     input): peer node (-1 = none) and the state it must have visited.
     Empty arrays = not resolved; fall back to [cfg.prerequisites]. *)
  pre_nodes : int array;
  pre_states : Fsm_state.t array;
  consumed : bool array;
  (* Output sink: the engine emits each item in flow order the moment it
     fires, so batch callers collect (Reconstruct keeps a presized
     growable buffer) and streaming callers forward downstream without
     materializing the flow. *)
  emit_item : ('label, 'payload) item -> unit;
  (* Provenance side-car, recorded in lockstep with [emit_item] (one
     entry per emission, same order) into an engine-owned flat buffer.
     [Provenance.t] is a private int, so with [prov_on] the per-emission
     cost is bit packing plus one int-array store (no write barrier, no
     allocation); off, it is one branch. *)
  prov_on : bool;
  mutable provs : Provenance.t array;
  mutable n_provs : int;
  (* Source side-car, in the same lockstep: per emission, the source
     index of the input event that fired ([-1] for an inferred one). *)
  src_on : bool;
  mutable sources : int array;
  mutable n_sources : int;
  (* Per event: the index consumers know it by — for packed input, the
     packet's node-scan-order record index the packer permuted it from
     ([||] = identity, the event array position itself). *)
  srcs : int array;
  (* Source index of the input event currently firing (prerequisite
     cascades it starts cite it as evidence); -1 outside any fire. *)
  mutable cur_ev : int;
  (* Run-local tallies; flushed to the process-wide metrics in one batch
     at the end, so a run costs a few atomic adds whatever its size. *)
  mutable n_logged : int;
  mutable n_inferred : int;
  mutable n_skipped : int;
  mutable n_cascades : int;
  mutable n_intra : int;
  (* Inferred emissions produced by intra-node bridges; the remainder of
     [n_inferred] came from inter-node drives.  Together with [n_logged]
     this is the full engine-side mechanism split, tallied at the emit
     sites (where the mechanism is static) so provenance-enabled runs
     never decode the side-car to count. *)
  mutable n_intra_ev : int;
  (* Drive-depth tally: depth_counts.(d) = cascades observed at depth d.
     Depths are tiny (bounded by prerequisite chain length), so a small
     growable array replaces a per-cascade list and the flush becomes one
     bulk histogram update per distinct depth. *)
  mutable depth_counts : int array;
  mutable drive_depth : int;
  (* Per-packet node sets are tiny (a handful of hops), so a linear scan
     over parallel arrays beats any hash table. *)
  mutable inst_nodes : int array;
  mutable inst_vals : ('label, 'payload) instance array;
  mutable inst_n : int;
}

let note_depth ctx d =
  let counts = ctx.depth_counts in
  let counts =
    if d < Array.length counts then counts
    else begin
      let counts' = Array.make (max (d + 1) (2 * Array.length counts)) 0 in
      Array.blit counts 0 counts' 0 (Array.length counts);
      ctx.depth_counts <- counts';
      counts'
    end
  in
  counts.(d) <- counts.(d) + 1

let new_instance ctx node =
  let fsm = ctx.cfg.fsm_of node in
  let n_states = Fsm.n_states fsm in
  let visited = Array.make n_states false in
  let inst =
    {
      fsm;
      state = Fsm.initial fsm;
      visited;
      driving = Array.make n_states false;
      pending = [];
      last_rec = -1;
    }
  in
  visited.(inst.state) <- true;
  if ctx.inst_n = Array.length ctx.inst_nodes then begin
    let cap = max 8 (2 * ctx.inst_n) in
    let nodes' = Array.make cap (-1) in
    Array.blit ctx.inst_nodes 0 nodes' 0 ctx.inst_n;
    ctx.inst_nodes <- nodes';
    let vals' = Array.make cap inst in
    Array.blit ctx.inst_vals 0 vals' 0 ctx.inst_n;
    ctx.inst_vals <- vals'
  end;
  ctx.inst_nodes.(ctx.inst_n) <- node;
  ctx.inst_vals.(ctx.inst_n) <- inst;
  ctx.inst_n <- ctx.inst_n + 1;
  inst

let instance ctx node =
  let nodes = ctx.inst_nodes in
  let rec find i =
    if i >= ctx.inst_n then new_instance ctx node
    else if Array.unsafe_get nodes i = node then Array.unsafe_get ctx.inst_vals i
    else find (i + 1)
  in
  find 0

let rec next_pending ctx inst =
  (* Drop already-consumed heads, then peek; -1 = exhausted. *)
  match inst.pending with
  | [] -> -1
  | idx :: rest ->
      if ctx.consumed.(idx) then begin
        inst.pending <- rest;
        next_pending ctx inst
      end
      else idx

(* The source index consumers know event [idx] by (packed inputs permute
   the packet's records; [srcs] maps back). *)
let orig ctx idx =
  if Array.length ctx.srcs = 0 then idx else Array.unsafe_get ctx.srcs idx

let emit ctx node label payload ~inferred ~src ~entered ~mech ~ev1 ~ev2 =
  ctx.emit_item { node; label; payload; inferred; entered };
  if ctx.prov_on then begin
    let pv = Provenance.make2 mech ~src ~dst:entered ~e1:ev1 ~e2:ev2 in
    let k = ctx.n_provs in
    if k = Array.length ctx.provs then begin
      let grown = Array.make (max 64 (2 * k)) pv in
      Array.blit ctx.provs 0 grown 0 k;
      ctx.provs <- grown
    end;
    Array.unsafe_set ctx.provs k pv;
    ctx.n_provs <- k + 1
  end;
  if ctx.src_on then begin
    let k = ctx.n_sources in
    if k = Array.length ctx.sources then begin
      let grown = Array.make (max 64 (2 * k)) (-1) in
      Array.blit ctx.sources 0 grown 0 k;
      ctx.sources <- grown
    end;
    Array.unsafe_set ctx.sources k (if inferred then -1 else ev1);
    ctx.n_sources <- k + 1
  end;
  if inferred then ctx.n_inferred <- ctx.n_inferred + 1
  else ctx.n_logged <- ctx.n_logged + 1

let enter inst dst =
  inst.state <- dst;
  inst.visited.(dst) <- true

let visited inst target =
  target >= 0 && target < Array.length inst.visited && inst.visited.(target)

let rec fire ctx idx node id label payload ~inferred =
  (* Scope [cur_ev] to this event: cascades it starts (directly or through
     the intra bridge below) cite it as their evidence; the caller's event
     is restored on the way out. *)
  let saved = ctx.cur_ev in
  ctx.cur_ev <- orig ctx idx;
  let fired = fire_event ctx idx node id label payload ~inferred in
  ctx.cur_ev <- saved;
  fired

and fire_event ctx idx node id label payload ~inferred =
  let inst = instance ctx node in
  let ev = orig ctx idx in
  match Fsm.step_id inst.fsm ~from:inst.state id with
  | -1 ->
      if not ctx.use_intra then false
      else begin
        match Fsm.infer_intra_id inst.fsm ~from:inst.state id with
        | None -> false
        | Some (lost_path, _jc) ->
            ctx.n_intra <- ctx.n_intra + 1;
            (* Evidence for the bridge: the node's last fired record (the
               gap's left bracket) and the record about to fire (right
               bracket). *)
            let bracket = inst.last_rec in
            List.iter
              (fun (_, d, l) ->
                let p = ctx.cfg.infer_payload ~node ~label:l in
                satisfy_prerequisites ctx node l p;
                let src = inst.state in
                enter inst d;
                ctx.n_intra_ev <- ctx.n_intra_ev + 1;
                emit ctx node l p ~inferred:true ~src ~entered:d
                  ~mech:Provenance.Intra_inference ~ev1:bracket ~ev2:ev)
              lost_path;
            (match Fsm.step_id inst.fsm ~from:inst.state id with
            | -1 ->
                (* infer_intra's path ends at a source of a normal
                   [label]-edge, so this branch is unreachable. *)
                assert false
            | dst ->
                satisfy_event_prereqs ctx idx node label payload;
                let src = inst.state in
                enter inst dst;
                emit ctx node label payload ~inferred ~src ~entered:dst
                  ~mech:Provenance.Logged ~ev1:ev ~ev2:(-1);
                inst.last_rec <- ev;
                true)
      end
  | dst ->
      satisfy_event_prereqs ctx idx node label payload;
      let src = inst.state in
      enter inst dst;
      emit ctx node label payload ~inferred ~src ~entered:dst
        ~mech:Provenance.Logged ~ev1:ev ~ev2:(-1);
      inst.last_rec <- ev;
      true

(* Prerequisite of an *input* event: packed callers resolved it into the
   per-event arrays; otherwise ask the config.  Inferred emissions always
   go through [satisfy_prerequisites] — they have no input slot. *)
and satisfy_event_prereqs ctx idx node label payload =
  if Array.length ctx.pre_nodes > 0 then begin
    let pn = Array.unsafe_get ctx.pre_nodes idx in
    if pn >= 0 then drive ctx pn ctx.pre_states.(idx)
  end
  else satisfy_prerequisites ctx node label payload

and satisfy_prerequisites ctx node label payload =
  match ctx.cfg.prerequisites ~node ~label ~payload with
  | [] -> ()
  | prereqs ->
      List.iter (fun (rnode, rstate) -> drive ctx rnode rstate) prereqs

and drive ctx rnode target =
  let inst = instance ctx rnode in
  (* A cycle re-enters drive for the same (instance, target), and only
     in-range targets can recurse (an out-of-range target fires nothing,
     so its drive terminates immediately); out-of-range targets skip the
     guard. *)
  let guarded = target >= 0 && target < Array.length inst.driving in
  if visited inst target then ()
  else if guarded && inst.driving.(target) then ()
  else begin
    if guarded then inst.driving.(target) <- true;
    ctx.drive_depth <- ctx.drive_depth + 1;
    ctx.n_cascades <- ctx.n_cascades + 1;
    note_depth ctx ctx.drive_depth;
    (try drive_loop ctx inst rnode target
     with e ->
       ctx.drive_depth <- ctx.drive_depth - 1;
       if guarded then inst.driving.(target) <- false;
       raise e);
    ctx.drive_depth <- ctx.drive_depth - 1;
    if guarded then inst.driving.(target) <- false
  end

and drive_loop ctx inst rnode target =
  if not (visited inst target) then begin
    let consumed_one =
      match next_pending ctx inst with
      | -1 -> false
      | idx ->
          if consume_helps ctx inst ctx.ids.(idx) target then begin
            ctx.consumed.(idx) <- true;
            if
              not
                (fire ctx idx rnode ctx.ids.(idx) ctx.labels.(idx)
                   ctx.payloads.(idx) ~inferred:false)
            then ctx.n_skipped <- ctx.n_skipped + 1;
            true
          end
          else false
    in
    if consumed_one then drive_loop ctx inst rnode target
    else infer_path_to ctx inst rnode target
  end

(* Would firing the node's next logged event visit [target] or keep it
   reachable? If not, consuming it here would overshoot; leave it for the
   main loop and bridge the gap by inference instead. *)
and consume_helps ctx inst id target =
  match Fsm.step_id inst.fsm ~from:inst.state id with
  | -1 ->
      ctx.use_intra
      && (match Fsm.infer_intra_id inst.fsm ~from:inst.state id with
         | None -> false
         | Some (lost_path, jc) ->
             jc = target
             || Fsm.reachable inst.fsm ~from:jc target
             || List.exists (fun (_, d, _) -> d = target) lost_path)
  | dst -> dst = target || Fsm.reachable inst.fsm ~from:dst target

and infer_path_to ctx inst rnode target =
  match Fsm.shortest_path inst.fsm ~from:inst.state ~to_:target with
  | None -> ()  (* unsatisfiable prerequisite: give up silently *)
  | Some path ->
      (* Evidence for the drive: the remote record that demanded this node's
         progress ([cur_ev]) and this node's own last fired record. *)
      let driver = ctx.cur_ev and local = inst.last_rec in
      List.iter
        (fun (_, d, l) ->
          let p = ctx.cfg.infer_payload ~node:rnode ~label:l in
          satisfy_prerequisites ctx rnode l p;
          let src = inst.state in
          enter inst d;
          emit ctx rnode l p ~inferred:true ~src ~entered:d
            ~mech:Provenance.Inter_inference ~ev1:driver ~ev2:local)
        path

let prov_dummy =
  Provenance.make2 Provenance.Logged ~src:(-1) ~dst:(-1) ~e1:(-1) ~e2:(-1)

(* Per-domain reusable side-car scratch: the engine runs once per packet,
   and allocating (then copying out of) a fresh buffer every run is the
   largest fixed cost of provenance-enabled runs on small packets.  The
   scratch lives for the domain's lifetime and grows to the largest packet
   seen; [prov_out] and [src_out] callees copy out the prefix they
   need. *)
let prov_scratch_key : Provenance.t array Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [||])

let src_scratch_key : int array Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [||])

let scratch key dummy n =
  let scratch = Domain.DLS.get key in
  let need = max 8 (n + (n / 8) + 8) in
  if Array.length scratch >= need then scratch
  else begin
    let scratch = Array.make need dummy in
    Domain.DLS.set key scratch;
    scratch
  end

let make_ctx config ~use_intra ~labels ~payloads ~ids ~pre_nodes ~pre_states
    ~emit_item ~prov_on ~src_on ~srcs ~n =
  {
    cfg = config;
    use_intra;
    labels;
    payloads;
    ids;
    pre_nodes;
    pre_states;
    consumed = Array.make n false;
    emit_item;
    prov_on;
    (* Presized to the input event count plus a few percent: the output is
       the inputs plus the inferred events. *)
    provs =
      (if prov_on then scratch prov_scratch_key prov_dummy n else [||]);
    n_provs = 0;
    src_on;
    sources = (if src_on then scratch src_scratch_key (-1) n else [||]);
    n_sources = 0;
    srcs;
    cur_ev = -1;
    n_logged = 0;
    n_inferred = 0;
    n_skipped = 0;
    n_cascades = 0;
    n_intra = 0;
    n_intra_ev = 0;
    depth_counts = Array.make 16 0;
    drive_depth = 0;
    inst_nodes = [||];
    inst_vals = [||];
    inst_n = 0;
  }

let sweep ctx nodes =
  let n = Array.length nodes in
  for idx = 0 to n - 1 do
    if not ctx.consumed.(idx) then begin
      ctx.consumed.(idx) <- true;
      if
        not
          (fire ctx idx nodes.(idx) ctx.ids.(idx) ctx.labels.(idx)
             ctx.payloads.(idx) ~inferred:false)
      then ctx.n_skipped <- ctx.n_skipped + 1
    end
  done;
  Obs.Metrics.Counter.add c_logged ctx.n_logged;
  Obs.Metrics.Counter.add c_inferred ctx.n_inferred;
  Obs.Metrics.Counter.add c_skipped ctx.n_skipped;
  Obs.Metrics.Counter.add c_cascades ctx.n_cascades;
  Obs.Metrics.Counter.add c_intra ctx.n_intra;
  if ctx.prov_on then begin
    Obs.Metrics.Counter.add c_prov_logged ctx.n_logged;
    Obs.Metrics.Counter.add c_prov_intra ctx.n_intra_ev;
    Obs.Metrics.Counter.add c_prov_inter (ctx.n_inferred - ctx.n_intra_ev)
  end;
  Array.iteri
    (fun d times -> Obs.Metrics.Histogram.observe_int_n h_drive_depth d times)
    ctx.depth_counts;
  {
    emitted_logged = ctx.n_logged;
    emitted_inferred = ctx.n_inferred;
    skipped = ctx.n_skipped;
  }

let finish ?prov_out ?src_out ctx nodes =
  let stats = sweep ctx nodes in
  (* Persist any growth [emit] did, so the next run on this domain starts
     with the larger scratch. *)
  (match prov_out with
  | None -> ()
  | Some f ->
      f ctx.provs ctx.n_provs;
      Domain.DLS.set prov_scratch_key ctx.provs);
  (match src_out with
  | None -> ()
  | Some f ->
      f ctx.sources ctx.n_sources;
      Domain.DLS.set src_scratch_key ctx.sources);
  stats

let process ?(use_intra = true) ?prov_out ?src_out config input
    ~emit:emit_item =
  let prov_on = prov_out <> None and src_on = src_out <> None in
  match input with
  | Packed { nodes; labels; ids; payloads; pre_nodes; pre_states; srcs } ->
      let n = Array.length nodes in
      let ctx =
        make_ctx config ~use_intra ~labels ~payloads ~ids ~pre_nodes
          ~pre_states ~emit_item ~prov_on ~src_on ~srcs ~n
      in
      for idx = n - 1 downto 0 do
        let inst = instance ctx nodes.(idx) in
        inst.pending <- idx :: inst.pending
      done;
      finish ?prov_out ?src_out ctx nodes
  | Events arr ->
      let n = Array.length arr in
      if n = 0 then
        finish ?prov_out ?src_out
          (make_ctx config ~use_intra ~labels:[||] ~payloads:[||] ~ids:[||]
             ~pre_nodes:[||] ~pre_states:[||] ~emit_item ~prov_on ~src_on
             ~srcs:[||] ~n:0)
          [||]
      else begin
        let _, l0, p0 = arr.(0) in
        let nodes = Array.make n 0 in
        let labels = Array.make n l0 in
        let payloads = Array.make n p0 in
        let ids = Array.make n (-1) in
        let ctx =
          make_ctx config ~use_intra ~labels ~payloads ~ids ~pre_nodes:[||]
            ~pre_states:[||] ~emit_item ~prov_on ~src_on ~srcs:[||] ~n
        in
        (* Per-node pending queues in merged (= local) order, and each
           event's label resolved to its instance FSM's dense id exactly
           once.  Reverse iteration builds the ascending pending lists
           directly. *)
        for idx = n - 1 downto 0 do
          let node, label, payload = arr.(idx) in
          nodes.(idx) <- node;
          labels.(idx) <- label;
          payloads.(idx) <- payload;
          let inst = instance ctx node in
          inst.pending <- idx :: inst.pending;
          ids.(idx) <- Fsm.label_id inst.fsm label
        done;
        finish ?prov_out ?src_out ctx nodes
      end

