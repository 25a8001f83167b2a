(* perfbench — the closed-loop performance benchmark of the visualinux stack.

   One process sets up one workload, warms it up, then runs its ops
   closed-loop for a fixed wall-clock window: each op starts only after
   the previous one finished, because a debugger user waits for each
   plot.  Every op's output is checked outside the timed region against
   a reference extraction (a pool-less, transport-less [Viewcl.run] of
   the same program on the same kernel state).

   [--trace 0] reports the end-to-end metrics with tracing off.
   [--trace 1] reports the per-layer metrics: an untraced half supplies
   the counters, sub-call timings and GC figures, a traced half (Obs on,
   ring harvested before it can overflow) supplies span self-times.

   Wire time is priced by the kgdb_rpi400 link model (the paper's Table 4
   cost model) and is labelled [model]; host time is measured on the
   host that runs the benchmark.  The last line of stdout is one JSON
   object: {"correct", "attempted", "failed", "metrics"}.

     bash perfbench/run.sh --workload cold_attach --seed 7 --seconds 10 --trace 0 *)

module Dpool = Viewcl.Dpool

let default_seed = 7
let held_out_seed = 1009
let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

(* ------------------------------------------------------------------ *)
(* Domains.  An attach at [VISUALINUX_DOMAINS >= 2] spawns a pool that
   nothing shuts down, and a terminated domain's heap is not reused, so
   re-attaching every epoch would leak domains and grow the heap.  The
   benchmark therefore attaches with [VISUALINUX_DOMAINS=1] (no pool) and
   owns the one pool a run extracts with. *)

let nproc = Domain.recommended_domain_count ()

let no_pool (s : Visualinux.session) =
  if s.Visualinux.pool <> None then failwith "attach spawned a domain pool"

(* ------------------------------------------------------------------ *)
(* Output checks *)

(* Box ids renumbered in preorder and the obs footer dropped, so an
   in-place refresh and a cold plot of the same state print the same. *)
let canonical g =
  let g' = Vgraph.renumber g in
  Vgraph.set_title g' "identity";
  Render.ascii g'
  |> String.split_on_char '\n'
  |> List.filter (fun l -> not (String.length l >= 5 && String.sub l 0 5 = "[obs:"))
  |> String.concat "\n"

let reference_target kernel ~pid =
  let t = Khelpers.attach kernel in
  Target.add_macro t "target_pid" pid;
  Target.set_read_cache t false;
  t

(* The canonical render a pane must show: a fresh extraction of its
   program with its ViewQL history replayed, as [Panel.refresh] does. *)
let reference rt program history =
  let g = (Viewcl.run ~cfg:(Visualinux.config ()) rt program).Viewcl.graph in
  let qs = Viewql.make_session g in
  List.iter (fun q -> try ignore (Viewql.exec qs q) with _ -> ()) history;
  canonical g

(* ------------------------------------------------------------------ *)
(* Per-op probes: cumulative counters read before and after each op *)

let p_wire = 0
let p_attempts = 1
let p_retries = 2
let p_drops = 3
let p_trips = 4
let p_deadline = 5
let p_hits = 6
let p_misses = 7
let p_coalesced = 8
let p_tasks = 9
let p_steals = 10
let p_busy = 11
let p_minor = 12
let p_major = 13
let p_rejections = 14
let p_stale = 15
let p_denied = 16
let p_hedged = 17
let p_records = 18
let n_probe = 19

let probe_transport a tr =
  let s = Transport.snapshot tr in
  a.(p_wire) <- s.Transport.sim_ms;
  a.(p_attempts) <- float s.Transport.attempts;
  a.(p_retries) <- float s.Transport.retries;
  a.(p_drops) <- float s.Transport.drops;
  a.(p_trips) <- float s.Transport.breaker_trips;
  a.(p_deadline) <- float s.Transport.deadline_hits

let probe_target a t =
  let c = Target.cache_stats t in
  a.(p_hits) <- float c.Target.hits;
  a.(p_misses) <- float c.Target.misses;
  a.(p_coalesced) <- float c.Target.coalesced

(* lane busy time is a list that only grows; fold it into a running
   total so each probe stays O(tasks since the last probe) *)
let probe_pool busy a p =
  a.(p_tasks) <- float (Dpool.executed p);
  a.(p_steals) <- float (Dpool.steals p);
  busy := List.fold_left ( +. ) !busy (Dpool.timings p);
  Dpool.reset_timings p;
  a.(p_busy) <- !busy

let probe_gc a =
  let g = Gc.quick_stat () in
  a.(p_minor) <- g.Gc.minor_words;
  a.(p_major) <- float g.Gc.major_collections

(* ------------------------------------------------------------------ *)
(* The harness: times ops, accumulates per-op deltas, judges outputs *)

type status = Ok | Degraded | Failed of string

(* what the timed part of an op reports about itself *)
type info = {
  stats : Visualinux.plot_stats option;  (** the plot/refresh, when it ran *)
  apply_ms : float option;  (** the ViewQL [Apply] call, when one ran *)
  render_ms : float;
}

(* A growable unboxed float buffer: per-op samples stay out of the heap
   the GC scans, so a long run does not slow down its own later ops. *)
type samples = { mutable buf : float array; mutable len : int }

let samples () = { buf = Array.make 4096 0.; len = 0 }

let push s v =
  if s.len = Array.length s.buf then begin
    let b = Array.make (2 * s.len) 0. in
    Array.blit s.buf 0 b 0 s.len;
    s.buf <- b
  end;
  s.buf.(s.len) <- v;
  s.len <- s.len + 1

let values s = Array.sub s.buf 0 s.len

type harness = {
  traced : bool;
  mutable probe : float array -> unit;  (** the live instance's counters *)
  host : samples;  (** per-op host ms *)
  wire : samples;  (** per-op wire ms *)
  mutable ops : int;
  mutable degraded : int;
  mutable failed : int;
  mutable first_failure : string option;
  delta : float array;
  mutable reads : int;
  mutable read_bytes : int;
  mutable built : int;
  mutable adopted : int;
  mutable invalidated : int;
  mutable boxes : int;
  mutable vbytes : int;
  mutable applies : int;
  mutable apply_ms : float;
  mutable render_ms : float;  (** every op renders once *)
  mutable peak_heap_mb : float;  (** GC top heap when the phase ended *)
}

let harness ~traced =
  { traced; probe = ignore; host = samples (); wire = samples (); ops = 0; degraded = 0;
    failed = 0; first_failure = None; delta = Array.make n_probe 0.; reads = 0;
    read_bytes = 0; built = 0; adopted = 0; invalidated = 0; boxes = 0; vbytes = 0;
    applies = 0; apply_ms = 0.; render_ms = 0.; peak_heap_mb = 0. }

(* Span self-times of the traced phase.  The ring is harvested and reset
   between ops once half full, so no event is ever evicted. *)
let span_self : (string, float) Hashtbl.t = Hashtbl.create 64

let harvest () =
  if Obs.dropped () > 0 then failwith "obs ring dropped events";
  List.iter
    (fun (r : Obs.Profile.row) ->
      let v = Option.value ~default:0. (Hashtbl.find_opt span_self r.Obs.Profile.pname) in
      Hashtbl.replace span_self r.Obs.Profile.pname (v +. r.Obs.Profile.pself_ms))
    (Obs.Profile.rows ());
  Obs.reset ()

let note_graph h g =
  h.boxes <- h.boxes + Vgraph.box_count g;
  h.vbytes <- h.vbytes + Vgraph.total_bytes g

(* One closed-loop op: [timed] runs inside the timed region (and, in the
   traced phase, with Obs on); [judge] checks its output afterwards. *)
let op h timed judge =
  let p0 = Array.make n_probe 0. and p1 = Array.make n_probe 0. in
  h.probe p0;
  if h.traced then begin
    if Obs.event_count () > Obs.ring_capacity () / 2 then harvest ();
    Obs.set_enabled true
  end;
  let t0 = now_ms () in
  let r = match timed () with v -> Result.Ok v | exception e -> Result.Error e in
  let host = now_ms () -. t0 in
  if h.traced then Obs.set_enabled false;
  h.probe p1;
  Array.iteri (fun i v -> h.delta.(i) <- h.delta.(i) +. v -. p0.(i)) p1;
  h.ops <- h.ops + 1;
  push h.host host;
  push h.wire (p1.(p_wire) -. p0.(p_wire));
  let status =
    match r with
    | Result.Error e -> Failed ("exception: " ^ Printexc.to_string e)
    | Result.Ok (payload, info) ->
        Option.iter
          (fun (st : Visualinux.plot_stats) ->
            h.reads <- h.reads + st.Visualinux.reads;
            h.read_bytes <- h.read_bytes + st.Visualinux.read_bytes;
            h.built <- h.built + st.Visualinux.cache_misses + st.Visualinux.cache_invalidated;
            h.adopted <- h.adopted + st.Visualinux.cache_hits;
            h.invalidated <- h.invalidated + st.Visualinux.cache_invalidated)
          info.stats;
        Option.iter
          (fun ms ->
            h.applies <- h.applies + 1;
            h.apply_ms <- h.apply_ms +. ms)
          info.apply_ms;
        h.render_ms <- h.render_ms +. info.render_ms;
        (try judge payload with e -> Failed ("check raised " ^ Printexc.to_string e))
  in
  match status with
  | Ok -> ()
  | Degraded -> h.degraded <- h.degraded + 1
  | Failed why ->
      h.degraded <- h.degraded + 1;
      h.failed <- h.failed + 1;
      if h.first_failure = None then h.first_failure <- Some why

let time f =
  let t0 = now_ms () in
  let v = f () in
  (v, now_ms () -. t0)

(* ------------------------------------------------------------------ *)
(* Workloads *)

type instance = {
  iterate : harness -> unit;  (** one iteration: untimed prep, then its ops *)
  probe : float array -> unit;
  wal_bytes : unit -> int;  (** the WAL's size, 0 without one *)
}

type workload = {
  name : string;
  domains : int;  (** extraction domains: the size of the run's pool *)
  epoch : int;  (** iterations per kernel boot *)
  setup : int -> Dpool.t option -> instance;  (** seed, the run's pool *)
}

let boot seed =
  let kernel = Kstate.boot () in
  let w = Workload.create ~seed kernel in
  Workload.run w;
  (kernel, w)

let objective_ql fig =
  List.find_map
    (fun (o : Objectives.objective) ->
      if o.Objectives.fig = fig then Some (Vchat.synthesize o.Objectives.text) else None)
    Objectives.all

(* cold_attach: every Table 2 figure plotted into a fresh pane after the
   target's read cache was cleared — the first-touch path. *)
let cold_attach seed pool =
  let kernel, _ = boot seed in
  let tr = Transport.create ~seed Target.kgdb_rpi400 in
  let s = Visualinux.attach ~transport:tr kernel in
  no_pool s;
  let s = { s with Visualinux.pool } in
  let figs = Array.of_list Scripts.table2 in
  (* nothing writes the kernel in this workload: one reference per figure *)
  let refs =
    lazy
      (let rt = reference_target kernel ~pid:s.Visualinux.target_pid in
       Array.map (fun (sc : Scripts.script) -> reference rt sc.Scripts.source []) figs)
  in
  let busy = ref 0. in
  let probe a =
    probe_transport a tr;
    probe_target a s.Visualinux.target;
    Option.iter (probe_pool busy a) s.Visualinux.pool;
    probe_gc a
  in
  let iterate h =
    Target.clear_read_cache s.Visualinux.target;
    s.Visualinux.panel <- Panel.create ();
    Hashtbl.reset s.Visualinux.caches;
    Array.iteri
      (fun i sc ->
        op h
          (fun () ->
            let pane, _, st = Visualinux.plot_figure s sc in
            let _, render_ms = time (fun () -> Visualinux.render_pane s pane.Panel.pid) in
            (pane.Panel.graph, { stats = Some st; apply_ms = None; render_ms }))
          (fun g ->
            note_graph h g;
            if canonical g = (Lazy.force refs).(i) then Ok
            else Failed ("render mismatch on figure " ^ sc.Scripts.fig)))
      figs
  in
  { iterate; probe; wal_bytes = (fun () -> 0) }

(* step_refresh: the step-and-look loop — kernel writes (untimed), then
   every open pane refreshed in place and rendered, with a Table 3 ViewQL
   program applied on the panes that have one. *)
let step_refresh seed _ =
  let kernel, w = boot seed in
  let tr = Transport.create ~seed Target.kgdb_rpi400 in
  let s = Visualinux.attach ~transport:tr kernel in
  no_pool s;
  let panes =
    Array.of_list
      (List.map
         (fun (sc : Scripts.script) ->
           let pane, _, _ = Visualinux.plot_figure s sc in
           (sc, ref pane.Panel.pid, objective_ql sc.Scripts.fig))
         Scripts.table2)
  in
  let rt = lazy (reference_target kernel ~pid:s.Visualinux.target_pid) in
  let round = ref 0 in
  (* a pane replays its whole ViewQL history on every refresh, so the
     panes that take an Apply each iteration are re-plotted (untimed)
     every [replot] iterations to keep that history bounded *)
  let replot = 4 in
  let probe a =
    probe_transport a tr;
    probe_target a s.Visualinux.target;
    probe_gc a
  in
  let iterate h =
    incr round;
    Workload.step w;
    Workload.simulate_time w;
    if !round mod replot = 0 then
      Array.iter
        (fun ((sc : Scripts.script), pid, ql) ->
          if ql <> None then begin
            let pane, _, _ = Visualinux.plot_figure s sc in
            ignore (Visualinux.vctrl s (Visualinux.Close { pane = !pid }));
            Hashtbl.remove s.Visualinux.caches !pid;
            pid := pane.Panel.pid
          end)
        panes;
    Array.iter
      (fun ((sc : Scripts.script), pid, ql) ->
        let pane = !pid in
        op h
          (fun () ->
            let res = Visualinux.vrefresh s ~pane in
            let apply_ms =
              Option.map
                (fun viewql ->
                  snd (time (fun () -> Visualinux.vctrl s (Visualinux.Apply { pane; viewql }))))
                ql
            in
            let _, render_ms = time (fun () -> Visualinux.render_pane s pane) in
            (res, { stats = Option.map snd res; apply_ms; render_ms }))
          (fun res ->
            let p = Panel.pane s.Visualinux.panel pane in
            note_graph h p.Panel.graph;
            if Option.is_none res then Failed ("refresh refused on figure " ^ sc.Scripts.fig)
            else if p.Panel.stale then Failed ("stale pane on figure " ^ sc.Scripts.fig)
            else if
              canonical p.Panel.graph
              = reference (Lazy.force rt) sc.Scripts.source p.Panel.history
            then Ok
            else Failed ("render mismatch on figure " ^ sc.Scripts.fig)))
      panes
  in
  { iterate; probe; wal_bytes = (fun () -> 0) }

(* fleet_faulty: four interleaved sessions on one shared link with a WAL
   attached; session 1 runs under injected faults and a retry budget. *)
(* session 1, the sick one, watches a figure every round rewrites; the
   others a mix of rewritten (3-4, 3-6) and untouched (7-1) ones *)
let fleet_figs = [ "9-2"; "3-4"; "3-6"; "7-1" ]
let session_counters = [ (p_rejections, "rejections"); (p_stale, "stale.renders");
                         (p_denied, "retry.denied"); (p_hedged, "hedged.ops") ]

let fleet_faulty seed _ =
  let kernel, w = boot seed in
  let tr = Transport.create ~seed Target.kgdb_rpi400 in
  let srv = Session.create ~capacity:(List.length fleet_figs) kernel in
  Session.add_target srv ~transport:tr "wire";
  let wal = Durable.create ~seed () in
  Session.attach_wal srv wal;
  let admitted = function
    | Session.Admitted v -> v
    | Session.Rejected { reason } -> failwith (Session.reason_to_string reason)
  in
  let sessions =
    List.mapi
      (fun i fig ->
        let sc = Option.get (Scripts.find fig) in
        let budget = if i = 0 then Some (Session.budget ~retry_burst:3 ()) else None in
        let sid =
          admitted
            (Session.open_session ?budget ~target:"wire" srv (Printf.sprintf "s%d" (i + 1)))
        in
        let vis = Option.get (Session.vis srv sid) in
        no_pool vis;
        let pane, _, _ = admitted (Session.vplot srv sid sc.Scripts.source) in
        (sid, sc, ref pane.Panel.pid, Option.get (objective_ql fig)))
      fleet_figs
  in
  (* the sick session's faults arm once every pane is open *)
  (match sessions with
  | (sick, _, _, _) :: _ -> Session.set_faults srv sick (Transport.faults_of_rate 0.2)
  | [] -> ());
  let vis sid = Option.get (Session.vis srv sid) in
  let first = vis (let sid, _, _, _ = List.hd sessions in sid) in
  let target = first.Visualinux.target in
  let rt = lazy (reference_target kernel ~pid:first.Visualinux.target_pid) in
  let round = ref 0 in
  let replot = 8 in
  let probe a =
    probe_transport a tr;
    probe_target a target;
    probe_gc a;
    List.iter
      (fun (slot, name) ->
        a.(slot) <-
          float (List.fold_left (fun acc (sid, _, _, _) -> acc + Session.counter srv sid name) 0
                   sessions))
      session_counters;
    a.(p_records) <- float (Durable.appended wal)
  in
  let iterate h =
    incr round;
    Workload.step w;
    Workload.simulate_time w;
    if !round mod replot = 0 then
      List.iter
        (fun (sid, (sc : Scripts.script), pid, _) ->
          match Session.vplot srv sid sc.Scripts.source with
          | Session.Admitted (pane, _, _) ->
              ignore (Session.vctrl srv sid (Visualinux.Close { pane = !pid }));
              Hashtbl.remove (vis sid).Visualinux.caches !pid;
              pid := pane.Panel.pid
          (* under injected faults a re-plot can fail to evaluate, or be
             refused; the session then keeps its old pane *)
          | Session.Rejected _ | (exception Viewcl.Error _) -> ())
        sessions;
    let apply = !round mod 2 = 0 in
    List.iter
      (fun (sid, (sc : Scripts.script), pid, viewql) ->
        let pane = !pid in
        let faults0 = Session.counter srv sid "faults" in
        op h
          (fun () ->
            let res = Session.vrefresh srv sid ~pane in
            let applied, apply_ms =
              if apply then
                let r, ms =
                  time (fun () -> Session.vctrl srv sid (Visualinux.Apply { pane; viewql }))
                in
                (Some r, Some ms)
              else (None, None)
            in
            let txt, render_ms = time (fun () -> Session.render srv sid pane) in
            let stats =
              match res with Session.Admitted (Some (_, st)) -> Some st | _ -> None
            in
            ((res, applied, txt), { stats; apply_ms; render_ms }))
          (fun (res, applied, txt) ->
            let faulted = Session.counter srv sid "faults" > faults0 in
            let p = Panel.pane (vis sid).Visualinux.panel pane in
            note_graph h p.Panel.graph;
            match (res, applied, txt) with
            | _, _, None -> Failed ("no render for session " ^ string_of_int sid)
            | Session.Rejected _, _, _ | _, Some (Session.Rejected _), _ -> Degraded
            | Session.Admitted None, _, _ -> Degraded
            | Session.Admitted (Some _), _, Some _ ->
                if p.Panel.stale then Degraded
                else if
                  canonical p.Panel.graph
                  = reference (Lazy.force rt) sc.Scripts.source p.Panel.history
                then Ok
                else if faulted then Degraded
                else Failed (Printf.sprintf "render mismatch on non-faulted op (session %d)" sid)))
      sessions
  in
  { iterate; probe; wal_bytes = (fun () -> String.length (Durable.contents wal)) }

let workloads =
  [ { name = "cold_attach"; domains = 2; epoch = 40; setup = cold_attach };
    { name = "step_refresh"; domains = 1; epoch = 16; setup = step_refresh };
    { name = "fleet_faulty"; domains = 1; epoch = 32; setup = fleet_faulty } ]

(* ------------------------------------------------------------------ *)
(* Statistics and reporting *)

type metric = { mname : string; unit_ : string; kind : string; n : int; value : float }

let quantile sorted q =
  let n = Array.length sorted in
  let h = q *. float (n - 1) in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  sorted.(lo) +. ((h -. float lo) *. (sorted.(hi) -. sorted.(lo)))

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let sum a = Array.fold_left ( +. ) 0. a
let median a = quantile (sorted a) 0.5

(* p99 needs at least ten samples beyond it *)
let min_ops = 1000

let end_to_end ~setups h =
  let host = values h.host and wire = values h.wire in
  let kgdb = sorted (Array.map2 ( +. ) host wire) in
  let n = h.ops in
  let m mname unit_ kind n value = { mname; unit_; kind; n; value } in
  [ m "setup_s" "s" "measured" (List.length setups) (median (Array.of_list setups));
    m "op_kgdb_ms.mean" "ms" "measured+model" n (sum kgdb /. float n);
    m "op_kgdb_ms.p99" "ms" "measured+model" n (quantile kgdb 0.99);
    m "op_wire_ms.mean" "ms" "model" n (sum wire /. float n);
    m "ok_share" "share" "count" n (1. -. (float h.degraded /. float n));
    m "peak_heap_mb" "MiB" "measured" 1 h.peak_heap_mb ]

(* Host-time percentiles.  On a shared host they do not repeat within a
   tenth from run to run, so they carry no bound: a [--trace 0] run only
   prints them, and the per-layer run reports them. *)
let host_metrics h =
  let host = values h.host and wire = values h.wire in
  let kgdb = sorted (Array.map2 ( +. ) host wire) in
  let n = h.ops in
  let m mname unit_ kind value = { mname; unit_; kind; n; value } in
  [ m "op_host_ms.p50" "ms" "measured" (median host);
    m "op_host_ms.p99" "ms" "measured" (quantile (sorted host) 0.99);
    m "op_kgdb_ms.p50" "ms" "measured+model" (quantile kgdb 0.5);
    m "ops_per_host_s" "1/s" "measured" (float n /. (sum host /. 1000.)) ]

(* span-name groups of the ledger; every recorded span lands in exactly
   one group, the unmatched ones in [other.self_ms] *)
let ledger_groups =
  [ ("transport.fetch.self_ms", fun n -> n = "transport.fetch");
    ("target.read.self_ms", fun n -> n = "target.read");
    ("viewcl.run.self_ms", fun n -> n = "viewcl.run");
    ("viewcl.box.self_ms", fun n -> n = "viewcl.box");
    ("viewcl.distill.self_ms",
     fun n -> String.length n > 15 && String.sub n 0 15 = "viewcl.distill.");
    ("core.self_ms", fun n -> n = "core.vplot" || n = "core.vrefresh");
    ("panel.refine.self_ms", fun n -> n = "panel.refine");
    ("viewql.exec.self_ms", fun n -> n = "viewql.exec");
    ("render.ascii.self_ms", fun n -> n = "render.ascii");
    ("session.op.self_ms", fun n -> n = "session.op") ]

let per_layer ~untraced:u ~traced:t ~wal_bytes =
  let ops = float u.ops in
  let per slot = u.delta.(slot) /. ops in
  let ratio a b = if a +. b = 0. then 0. else a /. (a +. b) in
  let m mname unit_ kind value = { mname; unit_; kind; n = u.ops; value } in
  let counts =
    [ m "transport.round_trips" "count" "model" (per p_attempts);
      m "transport.retries" "count" "model" (per p_retries);
      m "transport.drops" "count" "model" (per p_drops);
      m "transport.breaker_trips" "count" "model" (per p_trips);
      m "transport.deadline_hits" "count" "model" (per p_deadline);
      m "target.reads" "count" "count" (float u.reads /. ops);
      m "target.read_bytes" "bytes" "count" (float u.read_bytes /. ops);
      m "target.cache_hit_ratio" "ratio" "count"
        (ratio u.delta.(p_hits) u.delta.(p_misses));
      m "target.coalesced" "count" "count" (per p_coalesced);
      m "viewcl.boxes_built" "count" "count" (float u.built /. ops);
      m "viewcl.adopt_ratio" "ratio" "count"
        (ratio (float u.adopted) (float u.built));
      m "viewcl.invalidated" "count" "count" (float u.invalidated /. ops);
      m "dpool.tasks" "count" "count" (per p_tasks);
      m "dpool.steals" "count" "count" (per p_steals);
      m "dpool.lane_busy_ms" "ms" "measured+model" (per p_busy);
      m "vgraph.boxes" "count" "count" (float u.boxes /. ops);
      m "vgraph.bytes" "bytes" "count" (float u.vbytes /. ops);
      m "viewql.apply_ms" "ms" "measured"
        (if u.applies = 0 then 0. else u.apply_ms /. float u.applies);
      m "render.ascii_ms" "ms" "measured" (u.render_ms /. ops);
      m "session.rejections" "count" "count" (per p_rejections);
      m "session.stale.renders" "count" "count" (per p_stale);
      m "session.retry.denied" "count" "count" (per p_denied);
      m "session.hedged.ops" "count" "count" (per p_hedged);
      m "durable.records" "count" "count" (per p_records);
      { mname = "durable.bytes"; unit_ = "bytes"; kind = "count"; n = 1;
        value = float wal_bytes };
      m "gc.minor_words" "words" "measured" (per p_minor);
      m "gc.major_collections" "count" "measured" (per p_major);
      m "fail_share" "share" "count" (float u.degraded /. ops) ]
  in
  (* the ledger: span self-times per traced op *)
  let t_ops = float t.ops in
  let traced_ms = sum (values t.host) in
  let all_self = Hashtbl.fold (fun _ v a -> a +. v) span_self 0. in
  let group pred = Hashtbl.fold (fun k v a -> if pred k then a +. v else a) span_self 0. in
  let named = List.map (fun (name, pred) -> (name, group pred)) ledger_groups in
  let other =
    group (fun k -> not (List.exists (fun (_, pred) -> pred k) ledger_groups))
  in
  let residual = 1. -. (all_self /. traced_ms) in
  let covered = List.fold_left (fun a (_, v) -> a +. v) other named in
  if Float.abs (covered -. all_self) > 1e-6 *. Float.max 1. all_self then
    failwith "ledger: span groups do not partition the recorded spans";
  if Float.abs ((covered /. traced_ms) +. residual -. 1.) > 1e-9 then
    failwith "ledger: layer self-times plus residual do not add up to the traced op time";
  let tm mname value = { mname; unit_ = "ms"; kind = "measured"; n = t.ops; value } in
  let ledger =
    List.map (fun (name, v) -> tm name (v /. t_ops)) named
    @ [ tm "other.self_ms" (other /. t_ops);
        { mname = "ledger.residual_share"; unit_ = "share"; kind = "measured"; n = t.ops;
          value = residual };
        { mname = "obs.overhead_ratio"; unit_ = "ratio"; kind = "measured"; n = t.ops;
          value = median (values t.host) /. median (values u.host) } ]
  in
  host_metrics u @ counts @ ledger

(* ------------------------------------------------------------------ *)
(* Driving one workload *)

type outcome = {
  metrics : metric list;  (** the result's metrics *)
  ungated : metric list;  (** printed only *)
  attempted : int;
  failed : int;
  why : string option;  (** the first failure *)
}

(* One workload's run: the live instance and every set-up it took.  The
   workload boots afresh every [epoch] iterations. *)
type runner = {
  wl : workload;
  seed : int;
  pool : Dpool.t option;
  mutable inst : instance option;
  mutable iters : int;
  mutable setups : float list;  (** seconds, newest first *)
  mutable boots : int;
}

(* each epoch boots from its own seed, derived from the run's, so one run
   averages over many kernels and fault streams *)
let fresh r =
  let seed = r.seed + (7919 * r.boots) in
  r.boots <- r.boots + 1;
  let inst, ms = time (fun () -> r.wl.setup seed r.pool) in
  r.setups <- (ms /. 1000.) :: r.setups;
  r.inst <- Some inst;
  r.iters <- 0;
  inst

let step r (h : harness) =
  let inst =
    match r.inst with Some i when r.iters < r.wl.epoch -> i | _ -> fresh r
  in
  h.probe <- inst.probe;
  inst.iterate h;
  r.iters <- r.iters + 1

let at_boundary r = r.iters >= r.wl.epoch

let run_phase r ~traced ~seconds =
  let h = harness ~traced in
  let t_end = now_ms () +. (seconds *. 1000.) in
  (* a hard cap keeps a run that cannot reach [min_ops] bounded *)
  let t_cap = now_ms () +. (seconds *. 3000.) in
  while
    (now_ms () < t_end || h.ops < min_ops || not (at_boundary r)) && now_ms () < t_cap
  do
    step r h
  done;
  h.peak_heap_mb <-
    float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.;
  h

let run_workload wl ~seed ~seconds ~trace =
  if wl.domains > nproc then
    failwith (Printf.sprintf "%s needs %d domains on %d cores" wl.name wl.domains nproc);
  let pool = if wl.domains > 1 then Some (Dpool.create wl.domains) else None in
  let r = { wl; seed; pool; inst = None; iters = 0; setups = []; boots = 0 } in
  (* warm-up: lazy references, first allocations, code paths *)
  let warm = harness ~traced:false in
  for _ = 1 to 2 do step r warm done;
  r.inst <- None;
  let phases =
    if not trace then [ run_phase r ~traced:false ~seconds ]
    else begin
      let u = run_phase r ~traced:false ~seconds:(seconds /. 2.) in
      Hashtbl.reset span_self;
      Obs.reset ();
      let t = run_phase r ~traced:true ~seconds:(seconds /. 2.) in
      harvest ();
      [ u; t ]
    end
  in
  let metrics, ungated =
    match (phases, r.inst) with
    | [ u; t ], Some inst ->
        (per_layer ~untraced:u ~traced:t ~wal_bytes:(inst.wal_bytes ()), [])
    | h :: _, _ -> (end_to_end ~setups:r.setups h, host_metrics h)
    | [], _ -> assert false
  in
  Option.iter Dpool.shutdown pool;
  let all = warm :: phases in
  let why = List.find_map (fun (h : harness) -> h.first_failure) all in
  { metrics;
    ungated;
    attempted = List.fold_left (fun a (h : harness) -> a + h.ops) 0 all;
    failed = List.fold_left (fun a (h : harness) -> a + h.failed) 0 all; why }

(* ------------------------------------------------------------------ *)
(* Self-description *)

let git_rev () =
  let read f =
    try Some (String.trim (In_channel.with_open_bin f In_channel.input_all)) with _ -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some h when String.length h > 5 && String.sub h 0 5 = "ref: " -> (
      let r = String.sub h 5 (String.length h - 5) in
      match read (".git/" ^ r) with
      | Some rev -> rev
      | None -> (
          match read ".git/packed-refs" with
          | None -> "unknown"
          | Some packed ->
              String.split_on_char '\n' packed
              |> List.find_map (fun l ->
                     match String.split_on_char ' ' l with
                     | [ rev; name ] when name = r -> Some rev
                     | _ -> None)
              |> Option.value ~default:"unknown"))
  | Some h -> h

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "a metric is not a finite number"

let print_table ?(note = "") wname metrics =
  List.iter
    (fun m ->
      Printf.printf "%-14s %-26s %16.6f %-6s %-15s n=%d%s\n" wname m.mname m.value m.unit_
        m.kind m.n note)
    metrics

let () =
  Unix.putenv "VISUALINUX_DOMAINS" "1";
  let a =
    let rec go (w, seed, secs, trace) = function
      | "--workload" :: v :: rest -> go (Some v, seed, secs, trace) rest
      | "--seed" :: v :: rest -> go (w, int_of_string_opt v, secs, trace) rest
      | "--seconds" :: v :: rest -> go (w, seed, float_of_string_opt v, trace) rest
      | "--trace" :: v :: rest -> go (w, seed, secs, Some v) rest
      | [] -> Some (w, seed, secs, trace)
      | _ -> None
    in
    go (None, Some default_seed, Some 10., Some "0") (List.tl (Array.to_list Sys.argv))
  in
  let usage () =
    prerr_endline
      "usage: perfbench --workload <cold_attach|step_refresh|fleet_faulty|all> [--seed N] \
       [--seconds S] [--trace 0|1]";
    exit 2
  in
  let wname, seed, seconds, trace =
    match a with
    | Some (Some w, Some seed, Some secs, Some (("0" | "1") as t)) when secs > 0. ->
        (w, seed, secs, t = "1")
    | _ -> usage ()
  in
  let chosen =
    if wname = "all" then workloads
    else match List.filter (fun wl -> wl.name = wname) workloads with [] -> usage () | l -> l
  in
  let results =
    List.map
      (fun wl ->
        let o = run_workload wl ~seed ~seconds ~trace in
        print_table wl.name o.metrics;
        print_table ~note:" (no bound)" wl.name o.ungated;
        Printf.printf
          "# meta {\"workload\":%S,\"domains\":%d,\"seed\":%d,\"held_out_seed\":%d,\
           \"seconds\":%s,\"trace\":%b,\"attempted\":%d,\"failed\":%d,\
           \"nproc\":%d,\"ocaml\":%S,\"git_rev\":%S,\"wire_model\":%S}\n"
          wl.name wl.domains seed held_out_seed (json_float seconds) trace o.attempted o.failed
          nproc Sys.ocaml_version (git_rev ()) Target.kgdb_rpi400.Transport.pname;
        Option.iter (Printf.printf "# first failure: %s\n") o.why;
        (wl.name, o))
      chosen
  in
  (* the layer split must match each workload's reason for being *)
  let value w m =
    Option.bind (List.assoc_opt w results) (fun o ->
        List.find_map (fun x -> if x.mname = m then Some x.value else None) o.metrics)
  in
  let split_ok =
    List.for_all
      (fun w -> match value w "dpool.tasks" with Some v -> v = 0. | None -> true)
      [ "step_refresh"; "fleet_faulty" ]
    &&
    match
      (value "step_refresh" "transport.round_trips", value "cold_attach" "transport.round_trips")
    with
    | Some s, Some c -> s < c /. 5.
    | _ -> true
  in
  if not split_ok then print_endline "# layer split does not match the workloads' rationale";
  let key w m = if List.length results = 1 then m.mname else w ^ "." ^ m.mname in
  let metrics =
    List.concat_map
      (fun (w, o) ->
        List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" (key w m) (json_float m.value)
              m.unit_)
          o.metrics)
      results
  in
  let attempted = List.fold_left (fun a (_, o) -> a + o.attempted) 0 results in
  let failed = List.fold_left (fun a (_, o) -> a + o.failed) 0 results in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0 && split_ok) attempted failed (String.concat ", " metrics);
  exit 0
