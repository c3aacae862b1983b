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
      n : int;
      nodes : int array;
      labels : 'label array;
      ids : int array;
      payloads : 'payload option array;
      pre_nodes : int array;
      pre_states : Fsm_state.t array;
      srcs : int array;
    }

(* One node's engine, from the calling domain's pool.  [visited] and
   [driving] are at least [n_states] long, reset over the first
   [n_states] when the slot is taken, so range checks read [n_states].
   [pending] heads the node's queue of unconsumed input events, linked
   through the pool's [next]. *)
type instance = {
  mutable state : Fsm_state.t;
  mutable n_states : int;
  mutable visited : bool array;
  mutable driving : bool array;
      (* cycle guard: target states this instance is currently being
         driven toward (the recursion can only cycle through in-range
         states, so a per-instance flag array suffices) *)
  mutable pending : int;  (* first unconsumed input event, -1 = none *)
  mutable last_rec : int;
      (* provenance: source index of the last input event fired on this
         instance (-1 = none yet) — the local record bracketing any gap
         bridged on this node *)
}

(* Everything a run keeps that no label or payload types, reused by every
   run on the domain: the engine runs once per packet, a million times per
   CitySee reconstruction, so a run allocates only its context, its FSM
   slots and its stats.  [start] resets all of it, so a run that raised
   leaves nothing the next one reads. *)
type pool = {
  mutable insts : instance array;
  mutable inst_nodes : int array;
      (* per-packet node sets are tiny (a handful of hops), so a linear
         scan beats any hash table *)
  mutable inst_n : int;
  mutable next : int array;
      (* per input event: the next event of its node's queue, -1 = last *)
  mutable consumed : bool array;
  (* Provenance side-car, one entry per emission in emission order.
     [Provenance.t] is a private int, so recording one is bit packing and
     an int store. *)
  mutable provs : Provenance.t array;
  mutable n_provs : int;
  (* Source side-car: per emission, the source index of the input event
     that fired ([-1] for an inferred one). *)
  mutable sources : int array;
  mutable n_sources : int;
  (* Source index of the input event currently firing (prerequisite
     cascades it starts cite it as evidence); -1 outside any fire. *)
  mutable cur_ev : int;
  (* Run-local tallies, flushed to the process-wide metrics in one batch
     at the end, so a run costs a few atomic adds whatever its size.
     [n_intra_ev] counts the inferred emissions of intra-node bridges; the
     rest of [n_inferred] came from inter-node drives. *)
  mutable n_logged : int;
  mutable n_inferred : int;
  mutable n_skipped : int;
  mutable n_cascades : int;
  mutable n_intra : int;
  mutable n_intra_ev : int;
  (* depth_counts.(d) = cascades observed at depth d, for d <= max_depth *)
  mutable depth_counts : int array;
  mutable max_depth : int;
  mutable drive_depth : int;
}

(* One run: what the caller passed, the domain's pool, and each pool
   slot's FSM ([fsms.(i)] drives [pool.insts.(i)]), which is typed by
   label and so cannot live in the pool. *)
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
  (* Per event: the index consumers know it by — for packed input, the
     packet's node-scan-order record index the packer permuted it from
     ([||] = identity, the event array position itself). *)
  srcs : int array;
  (* Output sink: the engine emits each item in flow order the moment it
     fires, so batch callers pack it and streaming callers forward it
     without materializing the flow. *)
  emit_item :
    node:int ->
    label:'label ->
    payload:'payload option ->
    inferred:bool ->
    entered:Fsm_state.t ->
    unit;
  prov_on : bool;
  src_on : bool;
  pool : pool;
  mutable fsms : 'label Fsm.t array;
}

let pool_key : pool Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        insts = [||];
        inst_nodes = [||];
        inst_n = 0;
        next = [||];
        consumed = [||];
        provs = [||];
        n_provs = 0;
        sources = [||];
        n_sources = 0;
        cur_ev = -1;
        n_logged = 0;
        n_inferred = 0;
        n_skipped = 0;
        n_cascades = 0;
        n_intra = 0;
        n_intra_ev = 0;
        depth_counts = Array.make 16 0;
        max_depth = 0;
        drive_depth = 0;
      })

let prov_dummy =
  Provenance.make2 Provenance.Logged ~src:(-1) ~dst:(-1) ~e1:(-1) ~e2:(-1)

(* The calling domain's pool, reset for a run over [n] input events.  The
   side-car buffers are presized to the input count plus a few percent
   (the output is the inputs plus the inferred events) and grow in [emit]
   beyond that. *)
let start ~prov_on ~src_on n =
  let p = Domain.DLS.get pool_key in
  if Array.length p.next < n then begin
    let cap = max n (2 * Array.length p.next) in
    p.next <- Array.make cap (-1);
    p.consumed <- Array.make cap false
  end
  else Array.fill p.consumed 0 n false;
  let need = max 8 (n + (n / 8) + 8) in
  if prov_on && Array.length p.provs < need then
    p.provs <- Array.make need prov_dummy;
  if src_on && Array.length p.sources < need then
    p.sources <- Array.make need (-1);
  Array.fill p.depth_counts 0 (p.max_depth + 1) 0;
  p.inst_n <- 0;
  p.n_provs <- 0;
  p.n_sources <- 0;
  p.cur_ev <- -1;
  p.n_logged <- 0;
  p.n_inferred <- 0;
  p.n_skipped <- 0;
  p.n_cascades <- 0;
  p.n_intra <- 0;
  p.n_intra_ev <- 0;
  p.max_depth <- 0;
  p.drive_depth <- 0;
  p

let note_depth p d =
  if d >= Array.length p.depth_counts then begin
    let counts = Array.make (max (d + 1) (2 * Array.length p.depth_counts)) 0 in
    Array.blit p.depth_counts 0 counts 0 (Array.length p.depth_counts);
    p.depth_counts <- counts
  end;
  p.depth_counts.(d) <- p.depth_counts.(d) + 1;
  if d > p.max_depth then p.max_depth <- d

(* Take the pool's next slot for [node]'s engine, in its FSM's initial
   state. *)
let new_instance ctx node =
  let fsm = ctx.cfg.fsm_of node in
  let n_states = Fsm.n_states fsm in
  let p = ctx.pool in
  let i = p.inst_n in
  if i = Array.length p.insts then begin
    let cap = max 8 (2 * i) in
    let fresh _ =
      {
        state = 0;
        n_states = 0;
        visited = [||];
        driving = [||];
        pending = -1;
        last_rec = -1;
      }
    in
    p.insts <- Array.init cap (fun k -> if k < i then p.insts.(k) else fresh k);
    let nodes = Array.make cap (-1) in
    Array.blit p.inst_nodes 0 nodes 0 i;
    p.inst_nodes <- nodes
  end;
  if i >= Array.length ctx.fsms then begin
    let fsms = Array.make (max 8 (2 * i)) fsm in
    Array.blit ctx.fsms 0 fsms 0 i;
    ctx.fsms <- fsms
  end;
  let inst = p.insts.(i) in
  if Array.length inst.visited < n_states then begin
    inst.visited <- Array.make n_states false;
    inst.driving <- Array.make n_states false
  end
  else begin
    Array.fill inst.visited 0 n_states false;
    Array.fill inst.driving 0 n_states false
  end;
  inst.n_states <- n_states;
  inst.state <- Fsm.initial fsm;
  inst.visited.(inst.state) <- true;
  inst.pending <- -1;
  inst.last_rec <- -1;
  p.inst_nodes.(i) <- node;
  ctx.fsms.(i) <- fsm;
  p.inst_n <- i + 1;
  i

(* [node]'s pool slot, taken at its first use in the run.  The scans
   here and in [Reconstruct] are top-level functions: a local recursive
   function that captures variables is a closure allocated per call. *)
let rec find_slot ctx node i =
  if i >= ctx.pool.inst_n then new_instance ctx node
  else if Array.unsafe_get ctx.pool.inst_nodes i = node then i
  else find_slot ctx node (i + 1)

let slot ctx node = find_slot ctx node 0

(* Drop already-consumed heads of the node's queue, then peek; -1 =
   exhausted. *)
let rec skip_consumed p idx =
  if idx >= 0 && p.consumed.(idx) then skip_consumed p p.next.(idx) else idx

let next_pending p inst =
  let idx = skip_consumed p inst.pending in
  inst.pending <- idx;
  idx

(* The source index consumers know event [idx] by (packed inputs permute
   the packet's records; [srcs] maps back). *)
let orig ctx idx =
  if Array.length ctx.srcs = 0 then idx else Array.unsafe_get ctx.srcs idx

let emit ctx node label payload ~inferred ~src ~entered ~mech ~ev1 ~ev2 =
  ctx.emit_item ~node ~label ~payload ~inferred ~entered;
  let p = ctx.pool in
  if ctx.prov_on then begin
    let pv = Provenance.make2 mech ~src ~dst:entered ~e1:ev1 ~e2:ev2 in
    let k = p.n_provs in
    if k = Array.length p.provs then begin
      let grown = Array.make (max 64 (2 * k)) pv in
      Array.blit p.provs 0 grown 0 k;
      p.provs <- grown
    end;
    Array.unsafe_set p.provs k pv;
    p.n_provs <- k + 1
  end;
  if ctx.src_on then begin
    let k = p.n_sources in
    if k = Array.length p.sources then begin
      let grown = Array.make (max 64 (2 * k)) (-1) in
      Array.blit p.sources 0 grown 0 k;
      p.sources <- grown
    end;
    Array.unsafe_set p.sources k (if inferred then -1 else ev1);
    p.n_sources <- k + 1
  end;
  if inferred then p.n_inferred <- p.n_inferred + 1
  else p.n_logged <- p.n_logged + 1

let enter inst dst =
  inst.state <- dst;
  inst.visited.(dst) <- true

let visited inst target =
  target >= 0 && target < inst.n_states && inst.visited.(target)

let rec fire ctx idx node id label payload ~inferred =
  (* Scope [cur_ev] to this event: cascades it starts (directly or through
     the intra bridge below) cite it as their evidence; the caller's event
     is restored on the way out. *)
  let p = ctx.pool in
  let saved = p.cur_ev in
  p.cur_ev <- orig ctx idx;
  let fired = fire_event ctx idx node id label payload ~inferred in
  p.cur_ev <- saved;
  fired

and fire_event ctx idx node id label payload ~inferred =
  let i = slot ctx node in
  let inst = ctx.pool.insts.(i) and fsm = ctx.fsms.(i) in
  let ev = orig ctx idx in
  match Fsm.step_id fsm ~from:inst.state id with
  | -1 ->
      if not ctx.use_intra then false
      else begin
        match Fsm.infer_intra_id fsm ~from:inst.state id with
        | None -> false
        | Some (lost_path, _jc) ->
            ctx.pool.n_intra <- ctx.pool.n_intra + 1;
            (* Evidence for the bridge: the node's last fired record (the
               gap's left bracket) and the record about to fire (right
               bracket). *)
            bridge ctx inst node ~bracket:inst.last_rec ~ev lost_path;
            (match Fsm.step_id fsm ~from:inst.state id with
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

(* The intra bridge's lost events, in path order. *)
and bridge ctx inst node ~bracket ~ev = function
  | [] -> ()
  | (_, d, l) :: rest ->
      let p = ctx.cfg.infer_payload ~node ~label:l in
      satisfy_prerequisites ctx node l p;
      let src = inst.state in
      enter inst d;
      ctx.pool.n_intra_ev <- ctx.pool.n_intra_ev + 1;
      emit ctx node l p ~inferred:true ~src ~entered:d
        ~mech:Provenance.Intra_inference ~ev1:bracket ~ev2:ev;
      bridge ctx inst node ~bracket ~ev rest

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
  drive_all ctx (ctx.cfg.prerequisites ~node ~label ~payload)

and drive_all ctx = function
  | [] -> ()
  | (rnode, rstate) :: rest ->
      drive ctx rnode rstate;
      drive_all ctx rest

and drive ctx rnode target =
  let i = slot ctx rnode in
  let inst = ctx.pool.insts.(i) in
  (* A cycle re-enters drive for the same (instance, target), and only
     in-range targets can recurse (an out-of-range target fires nothing,
     so its drive terminates immediately); out-of-range targets skip the
     guard. *)
  let guarded = target >= 0 && target < inst.n_states in
  if visited inst target then ()
  else if guarded && inst.driving.(target) then ()
  else begin
    let p = ctx.pool in
    if guarded then inst.driving.(target) <- true;
    p.drive_depth <- p.drive_depth + 1;
    p.n_cascades <- p.n_cascades + 1;
    note_depth p p.drive_depth;
    drive_loop ctx ctx.fsms.(i) inst rnode target;
    p.drive_depth <- p.drive_depth - 1;
    if guarded then inst.driving.(target) <- false
  end

and drive_loop ctx fsm inst rnode target =
  if not (visited inst target) then begin
    let p = ctx.pool in
    let consumed_one =
      match next_pending p inst with
      | -1 -> false
      | idx ->
          if consume_helps ctx fsm inst ctx.ids.(idx) target then begin
            p.consumed.(idx) <- true;
            if
              not
                (fire ctx idx rnode ctx.ids.(idx) ctx.labels.(idx)
                   ctx.payloads.(idx) ~inferred:false)
            then p.n_skipped <- p.n_skipped + 1;
            true
          end
          else false
    in
    if consumed_one then drive_loop ctx fsm inst rnode target
    else infer_path_to ctx fsm inst rnode target
  end

(* Would firing the node's next logged event visit [target] or keep it
   reachable? If not, consuming it here would overshoot; leave it for the
   main loop and bridge the gap by inference instead. *)
and consume_helps ctx fsm inst id target =
  match Fsm.step_id fsm ~from:inst.state id with
  | -1 ->
      ctx.use_intra
      && (match Fsm.infer_intra_id fsm ~from:inst.state id with
         | None -> false
         | Some (lost_path, jc) ->
             jc = target
             || Fsm.reachable fsm ~from:jc target
             || on_path target lost_path)
  | dst -> dst = target || Fsm.reachable fsm ~from:dst target

and on_path target = function
  | [] -> false
  | (_, d, _) :: rest -> d = target || on_path target rest

and infer_path_to ctx fsm inst rnode target =
  match Fsm.shortest_path fsm ~from:inst.state ~to_:target with
  | None -> ()  (* unsatisfiable prerequisite: give up silently *)
  | Some path ->
      (* Evidence for the drive: the remote record that demanded this node's
         progress ([cur_ev]) and this node's own last fired record. *)
      infer_path ctx inst rnode ~driver:ctx.pool.cur_ev ~local:inst.last_rec
        path

and infer_path ctx inst rnode ~driver ~local = function
  | [] -> ()
  | (_, d, l) :: rest ->
      let p = ctx.cfg.infer_payload ~node:rnode ~label:l in
      satisfy_prerequisites ctx rnode l p;
      let src = inst.state in
      enter inst d;
      emit ctx rnode l p ~inferred:true ~src ~entered:d
        ~mech:Provenance.Inter_inference ~ev1:driver ~ev2:local;
      infer_path ctx inst rnode ~driver ~local rest

(* Step 4: fire every input event no drive consumed, in input order, then
   flush the run's tallies and side-cars. *)
let finish ?prov_out ?src_out ctx nodes n =
  let p = ctx.pool in
  for idx = 0 to n - 1 do
    if not p.consumed.(idx) then begin
      p.consumed.(idx) <- true;
      if
        not
          (fire ctx idx nodes.(idx) ctx.ids.(idx) ctx.labels.(idx)
             ctx.payloads.(idx) ~inferred:false)
      then p.n_skipped <- p.n_skipped + 1
    end
  done;
  Obs.Metrics.Counter.add c_logged p.n_logged;
  Obs.Metrics.Counter.add c_inferred p.n_inferred;
  Obs.Metrics.Counter.add c_skipped p.n_skipped;
  Obs.Metrics.Counter.add c_cascades p.n_cascades;
  Obs.Metrics.Counter.add c_intra p.n_intra;
  if ctx.prov_on then begin
    Obs.Metrics.Counter.add c_prov_logged p.n_logged;
    Obs.Metrics.Counter.add c_prov_intra p.n_intra_ev;
    Obs.Metrics.Counter.add c_prov_inter (p.n_inferred - p.n_intra_ev)
  end;
  for d = 1 to p.max_depth do
    Obs.Metrics.Histogram.observe_int_n h_drive_depth d p.depth_counts.(d)
  done;
  (match prov_out with Some f -> f p.provs p.n_provs | None -> ());
  (match src_out with Some f -> f p.sources p.n_sources | None -> ());
  {
    emitted_logged = p.n_logged;
    emitted_inferred = p.n_inferred;
    skipped = p.n_skipped;
  }

let make_ctx config ~use_intra ~emit_item ~prov_on ~src_on pool ~labels
    ~payloads ~ids ~pre_nodes ~pre_states ~srcs =
  {
    cfg = config;
    use_intra;
    labels;
    payloads;
    ids;
    pre_nodes;
    pre_states;
    srcs;
    emit_item;
    prov_on;
    src_on;
    pool;
    fsms = [||];
  }

let process ?(use_intra = true) ?prov_out ?src_out config input
    ~emit:emit_item =
  let prov_on = prov_out <> None and src_on = src_out <> None in
  match input with
  | Packed { n; nodes; labels; ids; payloads; pre_nodes; pre_states; srcs } ->
      let pool = start ~prov_on ~src_on n in
      let ctx =
        make_ctx config ~use_intra ~emit_item ~prov_on ~src_on pool ~labels
          ~payloads ~ids ~pre_nodes ~pre_states ~srcs
      in
      (* Per-node pending queues in input (= local) order: linking from
         the last event back puts each queue's first event at its head. *)
      for idx = n - 1 downto 0 do
        let inst = pool.insts.(slot ctx nodes.(idx)) in
        pool.next.(idx) <- inst.pending;
        inst.pending <- idx
      done;
      finish ?prov_out ?src_out ctx nodes n
  | Events arr ->
      let n = Array.length arr in
      let pool = start ~prov_on ~src_on n in
      let nodes = Array.make n 0 and ids = Array.make n (-1) in
      let ctx =
        make_ctx config ~use_intra ~emit_item ~prov_on ~src_on pool
          ~labels:(Array.map (fun (_, l, _) -> l) arr)
          ~payloads:(Array.map (fun (_, _, p) -> p) arr)
          ~ids ~pre_nodes:[||] ~pre_states:[||] ~srcs:[||]
      in
      (* The same queues, and each event's label resolved to its
         instance FSM's dense id exactly once. *)
      for idx = n - 1 downto 0 do
        let node, label, _ = arr.(idx) in
        let i = slot ctx node in
        let inst = pool.insts.(i) in
        nodes.(idx) <- node;
        pool.next.(idx) <- inst.pending;
        inst.pending <- idx;
        ids.(idx) <- Fsm.label_id ctx.fsms.(i) label
      done;
      finish ?prov_out ?src_out ctx nodes n
