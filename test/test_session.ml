(* The multi-session server (ISSUE 6): fault isolation (one session's
   fault storm/breaker-Open leaves other sessions' rendered bytes,
   fault journals and counters identical to solo runs), typed admission
   control (capacity, budgets, quarantine — never an exception),
   degradation-fair scheduling, journal compaction replay-equivalence,
   and crash-safe fleet recovery. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Graph identity up to box-id renumbering, minus the obs footer. *)
let canonical g =
  let g' = Vgraph.renumber g in
  Vgraph.set_title g' "identity";
  Render.ascii g'
  |> String.split_on_char '\n'
  |> List.filter (fun l -> not (String.length l >= 5 && String.sub l 0 5 = "[obs:"))
  |> String.concat "\n"

let boot () =
  let k = Kstate.boot () in
  let w = Workload.create k in
  Workload.run w;
  k

let fig name = (Option.get (Scripts.find name)).Scripts.source
let ql_collapse = "a = SELECT mid FROM *\nUPDATE a WITH collapsed: true"

let pane_state vis =
  List.map
    (fun id ->
      let p = Panel.pane vis.Visualinux.panel id in
      (id, List.map (fun b -> b.Vgraph.id) (Vgraph.boxes p.Panel.graph), canonical p.Panel.graph))
    (Panel.pane_ids vis.Visualinux.panel)

let admitted = function
  | Session.Admitted x -> x
  | Session.Rejected { reason } ->
      Alcotest.failf "unexpected rejection: %s" (Session.reason_to_string reason)

(* ------------------------------------------------------------------ *)
(* Journal compaction: replay equivalence *)

(* Random op soup over a small id space: plenty of dangling references,
   open/close churn and panes that survive. *)
let op_gen =
  QCheck.Gen.(
    let id = int_range 1 8 in
    list_size (int_range 0 40)
      (frequency
         [ (3, return (Panel.Jopen { program = "p" }));
           ( 2,
             map2
               (fun at h ->
                 Panel.Jsplit
                   { dir = (if h then `Horizontal else `Vertical); at; program = "q" })
               id bool );
           (2, map (fun from_ -> Panel.Jselect { from_; picked = [] }) id);
           (2, map (fun at -> Panel.Jrefine { at; viewql = ql_collapse }) id);
           (3, map (fun id -> Panel.Jclose { id }) id) ]))

let arb_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Panel.Jopen _ -> "open"
             | Panel.Jsplit { at; _ } -> Printf.sprintf "split@%d" at
             | Panel.Jselect { from_; _ } -> Printf.sprintf "sel@%d" from_
             | Panel.Jrefine { at; _ } -> Printf.sprintf "ref@%d" at
             | Panel.Jclose { id } -> Printf.sprintf "close@%d" id
             | Panel.Jreserve { n } -> Printf.sprintf "skip%d" n)
           ops))
    op_gen

let compaction_replay_equivalence =
  QCheck.Test.make ~name:"compacted journal replays to the identical panel" ~count:200
    arb_ops
    (fun ops ->
      let extract _ = Some (Vgraph.create ()) in
      let t1, _ = Panel.recover ~extract ops in
      let compacted = Panel.compact_journal ops in
      let t2, _ = Panel.recover ~extract compacted in
      List.length compacted <= List.length ops
      && Panel.pane_ids t1 = Panel.pane_ids t2
      && Panel.to_json t1 = Panel.to_json t2)

let test_compaction_drops_churn () =
  (* open/close churn around one survivor: everything but the survivor's
     ops and one coalesced reserve must go *)
  let churn i = [ Panel.Jopen { program = "x" }; Panel.Jclose { id = i } ] in
  let ops = List.concat (List.init 10 (fun i -> churn (i + 1))) @ [ Panel.Jopen { program = "keep" } ] in
  let compacted = Panel.compact_journal ops in
  Alcotest.(check int) "churn collapses to reserve + survivor" 2 (List.length compacted);
  (match compacted with
  | [ Panel.Jreserve { n }; Panel.Jopen { program } ] ->
      Alcotest.(check int) "reserve skips all churned ids" 10 n;
      Alcotest.(check string) "survivor kept" "keep" program
  | _ -> Alcotest.fail "expected [reserve; open]");
  let extract _ = Some (Vgraph.create ()) in
  let t, _ = Panel.recover ~extract compacted in
  Alcotest.(check (list int)) "survivor keeps its original id" [ 11 ] (Panel.pane_ids t)

let test_auto_compaction_bounds_journal () =
  let t = Panel.create () in
  Panel.set_journal_limit t (Some 8);
  for _ = 1 to 50 do
    let p = Panel.open_primary t ~program:"x" (Vgraph.create ()) in
    Panel.close t p.Panel.pid
  done;
  Alcotest.(check bool) "journal stays bounded under churn" true
    (List.length (Panel.journal t) <= 10);
  let p = Panel.open_primary t ~program:"live" (Vgraph.create ()) in
  Alcotest.(check int) "ids keep advancing past reserved ranges" 51 p.Panel.pid;
  let t2, _ = Panel.recover ~extract:(fun _ -> Some (Vgraph.create ())) (Panel.journal t) in
  Alcotest.(check (list int)) "recovery reproduces the surviving pane id" [ 51 ]
    (Panel.pane_ids t2)

(* ------------------------------------------------------------------ *)
(* Fault isolation: a storm in one session leaves another bit-identical *)

(* Drive the same op sequence for the observed session in both servers;
   the second server also hosts a storming neighbour interleaved
   between every step. *)
let isolation_under_fault_storm =
  QCheck.Test.make ~name:"fault storm in one session: neighbour bit-identical to solo"
    ~count:3
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let kernel = boot () in
      let mk_server () =
        let srv = Session.create kernel in
        let policy =
          { Transport.default_policy with Transport.breaker_threshold = 1_000_000 }
        in
        let tr = Transport.create ~seed ~policy Transport.qemu_local in
        Session.add_target srv ~transport:tr "wire";
        srv
      in
      let observe srv sid =
        ( pane_state (Option.get (Session.vis srv sid)),
          Session.fault_journal srv sid |> List.map Target.fault_to_string,
          Session.counters srv sid )
      in
      (* solo run *)
      let solo = mk_server () in
      let a = admitted (Session.open_session ~target:"wire" solo "alice") in
      Target.set_read_cache (Option.get (Session.vis solo a)).Visualinux.target false;
      let steps srv sid storm =
        let pane, _, _ = admitted (Session.vplot srv sid ~title:"t" (fig "3-4")) in
        storm ();
        ignore (admitted (Session.vctrl srv sid (Visualinux.Apply { pane = pane.Panel.pid; viewql = ql_collapse })));
        storm ();
        ignore (admitted (Session.vrefresh srv sid ~pane:pane.Panel.pid));
        storm ()
      in
      steps solo a (fun () -> ());
      (* shared run: bob storms between every one of alice's steps *)
      let shared = mk_server () in
      let a' = admitted (Session.open_session ~target:"wire" shared "alice") in
      Target.set_read_cache (Option.get (Session.vis shared a')).Visualinux.target false;
      (* stalls and drops but no disconnects: this test isolates the
         fault-journal/counter plumbing; breaker-Open and link-loss
         degradation get their own deterministic test below.  The drop
         rate must be high enough that at least one read exhausts the
         retry budget (drop_rate^(max_retries+1) per read) for every
         transport seed, or the non-vacuity check below flakes. *)
      let b =
        admitted
          (Session.open_session ~target:"wire"
             ~faults:{ Transport.stall_rate = 0.3; drop_rate = 0.6; disconnect_rate = 0. }
             shared "bob")
      in
      let storm () = ignore (Session.vplot shared b (fig "7-1")) in
      steps shared a' storm;
      (* bob really did take faults (the storm is not vacuous)... *)
      Session.counter shared b "faults" > 0
      (* ...and alice cannot tell: same pane bytes, same fault journal,
         same private counters *)
      && observe solo a = observe shared a')

let test_breaker_open_quarantine_and_fair_recovery () =
  let kernel = boot () in
  (* solo baseline for alice's pane bytes *)
  let solo = Session.create kernel in
  Session.add_target solo ~transport:(Transport.create ~seed:7 Transport.qemu_local) "wire";
  let sa = admitted (Session.open_session ~target:"wire" solo "alice") in
  let p0, _, _ = admitted (Session.vplot solo sa (fig "3-4")) in
  ignore (admitted (Session.vrefresh solo sa ~pane:p0.Panel.pid));
  let solo_state = pane_state (Option.get (Session.vis solo sa)) in
  (* shared server: alice + carol healthy, bob's link drops everything *)
  let srv = Session.create kernel in
  Session.add_target srv ~transport:(Transport.create ~seed:7 Transport.qemu_local) "wire";
  let a = admitted (Session.open_session ~target:"wire" srv "alice") in
  let b =
    admitted
      (Session.open_session ~target:"wire"
         ~faults:{ Transport.stall_rate = 0.; drop_rate = 1.0; disconnect_rate = 0. }
         srv "bob")
  in
  let c = admitted (Session.open_session ~target:"wire" srv "carol") in
  let pa, _, _ = admitted (Session.vplot srv a (fig "3-4")) in
  let pc, _, _ = admitted (Session.vplot srv c (fig "7-1")) in
  ignore pc;
  (* bob's storm trips the shared breaker: the target quarantines *)
  ignore (Session.vplot srv b (fig "9-2"));
  (match Session.target_health srv "wire" with
  | `Quarantine prober -> Alcotest.(check int) "first prober elected round-robin" a prober
  | _ -> Alcotest.fail "breaker-Open must quarantine the target");
  (* non-probers are refused with a typed reason, never an exception *)
  (match Session.vplot srv b (fig "9-2") with
  | Session.Rejected { reason = Session.Quarantined { target; prober } } ->
      Alcotest.(check string) "refusal names the target" "wire" target;
      Alcotest.(check int) "refusal names the prober" a prober
  | Session.Rejected { reason } ->
      Alcotest.failf "wrong reason: %s" (Session.reason_to_string reason)
  | Session.Admitted _ -> Alcotest.fail "non-prober must be refused during quarantine");
  Alcotest.(check bool) "refused session counts its rejection" true
    (Session.counter srv b "rejections" > 0);
  (* the refused sessions degrade to stale renders, they do not go dark *)
  (match Session.render srv c pc.Panel.pid with
  | Some out -> Alcotest.(check bool) "carol serves [STALE] panes" true (contains out "[STALE]")
  | None -> Alcotest.fail "carol must still render");
  (* bob's fault condition clears (otherwise his first re-admitted op
     would — correctly — re-trip the quarantine) *)
  Session.set_faults srv b Transport.no_faults;
  (* the prober's traffic heals the link: quarantine -> probation *)
  ignore (admitted (Session.vrefresh srv a ~pane:pa.Panel.pid));
  (match Session.target_health srv "wire" with
  | `Probation waiting ->
      Alcotest.(check (list int)) "probation queue is the non-probers, in order"
        [ b; c ] waiting
  | _ -> Alcotest.fail "successful probe must open probation");
  (* re-admission is staggered: carol (not head) is still refused... *)
  (match Session.vplot srv c (fig "7-1") with
  | Session.Rejected { reason = Session.Quarantined _ } -> ()
  | _ -> Alcotest.fail "non-head waiter must wait its turn");
  (* ...bob (head) gets back in, which admits one waiter per op *)
  (match Session.vplot srv b (fig "9-2") with
  | Session.Admitted _ -> ()
  | Session.Rejected { reason } ->
      Alcotest.failf "head waiter refused: %s" (Session.reason_to_string reason));
  (match Session.vplot srv c (fig "7-1") with
  | Session.Admitted _ -> ()
  | Session.Rejected { reason } ->
      Alcotest.failf "second waiter refused after one op: %s"
        (Session.reason_to_string reason));
  Alcotest.(check bool) "target healthy again" true
    (Session.target_health srv "wire" = `Healthy);
  (* through the whole storm+recovery, alice's pane is bit-identical to
     her solo run *)
  let shared_state =
    List.filter (fun (id, _, _) -> id = pa.Panel.pid)
      (pane_state (Option.get (Session.vis srv a)))
  in
  Alcotest.(check bool) "alice's pane bytes identical to solo" true
    (shared_state = List.filter (fun (id, _, _) -> id = p0.Panel.pid) solo_state);
  Alcotest.(check (list string)) "alice's fault journal identical to solo"
    (List.map Target.fault_to_string (Session.fault_journal solo sa))
    (List.map Target.fault_to_string (Session.fault_journal srv a))

(* ------------------------------------------------------------------ *)
(* Admission control *)

let test_capacity_and_budgets () =
  let kernel = boot () in
  let srv = Session.create ~capacity:2 kernel in
  Session.add_target srv ~transport:(Transport.create Transport.qemu_local) "wire";
  let _a = admitted (Session.open_session ~target:"wire" srv "a") in
  let b =
    admitted
      (Session.open_session ~target:"wire"
         ~budget:(Session.budget ~max_reads:40 ()) srv "b")
  in
  (* every field read must be its own round-trip, or struct-granular
     coalescing amortizes the whole plot under the budget *)
  Target.set_read_cache (Option.get (Session.vis srv b)).Visualinux.target false;
  (match Session.open_session srv "c" with
  | Session.Rejected { reason = Session.Capacity { limit } } ->
      Alcotest.(check int) "capacity reason carries the limit" 2 limit
  | _ -> Alcotest.fail "over-capacity open must be a typed rejection");
  (match Session.open_session ~target:"nope" srv "c" with
  | Session.Rejected { reason = Session.Unknown_target _ } -> ()
  | _ -> Alcotest.fail "unknown target must be a typed rejection");
  (* the first plot is admitted and the budget bites mid-plot at the
     fetch boundary: refused reads degrade to Timed_out faults *)
  let _, res, _ = admitted (Session.vplot srv b (fig "9-2")) in
  Alcotest.(check bool) "budgeted plot still produced boxes" true
    (Vgraph.box_count res.Viewcl.graph > 0);
  Alcotest.(check bool) "gate refusals counted" true
    (Session.counter srv b "budget.refusals" > 0);
  Alcotest.(check bool) "refused reads degrade to Timed_out faults" true
    (List.exists
       (function Target.Timed_out _ -> true | _ -> false)
       (Session.fault_journal srv b));
  Alcotest.(check bool) "budget spend is tracked" true (Session.reads_used srv b >= 40);
  (* once spent, the next op is refused up front — typed, no exception *)
  (match Session.vplot srv b (fig "9-2") with
  | Session.Rejected { reason = Session.Reads_exhausted { used; limit } } ->
      Alcotest.(check int) "limit echoed" 40 limit;
      Alcotest.(check bool) "usage echoed" true (used >= limit)
  | _ -> Alcotest.fail "exhausted budget must be a typed rejection");
  (* a new epoch renews the budget *)
  Session.begin_epoch srv b;
  (match Session.vplot srv b (fig "9-2") with
  | Session.Admitted _ -> ()
  | Session.Rejected { reason } ->
      Alcotest.failf "fresh epoch refused: %s" (Session.reason_to_string reason));
  Alcotest.(check bool) "epoch counter moved" true (Session.counter srv b "epochs" = 1)

(* ------------------------------------------------------------------ *)
(* Cross-session cache sharing (the intended coupling) *)

let test_cross_session_cache_hits () =
  let kernel = boot () in
  let mk () =
    let srv = Session.create kernel in
    Session.add_target srv ~transport:(Transport.create Transport.qemu_local) "wire";
    srv
  in
  (* a plot self-hits pages it re-reads, so "first plot hits" is never
     zero; the cross-session effect is the *extra* hits (and saved wire
     reads) b gets when a has already walked the same structures *)
  let solo = mk () in
  let b0 = admitted (Session.open_session ~target:"wire" solo "b") in
  ignore (admitted (Session.vplot solo b0 (fig "3-4")));
  let shared = mk () in
  let a = admitted (Session.open_session ~target:"wire" shared "a") in
  let b = admitted (Session.open_session ~target:"wire" shared "b") in
  ignore (admitted (Session.vplot shared a (fig "3-4")));
  ignore (admitted (Session.vplot shared b (fig "3-4")));
  Alcotest.(check bool) "b hits a's warmed cache beyond its solo self-hits" true
    (Session.counter shared b "cache.hits" > Session.counter solo b0 "cache.hits");
  Alcotest.(check bool) "and spends fewer wire reads than solo" true
    (Session.counter shared b "reads" < Session.counter solo b0 "reads")

(* ------------------------------------------------------------------ *)
(* Crash-safe fleet recovery *)

let test_fleet_recovery () =
  let kernel = boot () in
  let mk () =
    let srv = Session.create kernel in
    Session.add_target srv ~transport:(Transport.create ~seed:11 Transport.qemu_local) "wire";
    srv
  in
  let srv = mk () in
  let a = admitted (Session.open_session ~target:"wire" srv "alice") in
  let b =
    admitted
      (Session.open_session ~target:"wire"
         ~budget:(Session.budget ~max_reads:100_000 ()) srv "bob")
  in
  let pa, _, _ = admitted (Session.vplot srv a (fig "3-4")) in
  ignore
    (admitted
       (Session.vctrl srv a
          (Visualinux.Split
             { pane = pa.Panel.pid; dir = `Vertical; program = fig "7-1" })));
  ignore
    (admitted
       (Session.vctrl srv a (Visualinux.Apply { pane = pa.Panel.pid; viewql = ql_collapse })));
  let pb1, _, _ = admitted (Session.vplot srv b (fig "9-2")) in
  let pb2, _, _ = admitted (Session.vplot srv b (fig "7-1")) in
  ignore (admitted (Session.vctrl srv b (Visualinux.Close { pane = pb1.Panel.pid })));
  ignore pb2;
  let before =
    List.map (fun sid -> (sid, pane_state (Option.get (Session.vis srv sid))))
      (Session.session_ids srv)
  in
  let image = Session.fleet_image srv in
  (* the server dies; a fresh one recovers the whole fleet *)
  let srv2 = mk () in
  let recovered = (Session.recover_durable srv2 image).Session.rsessions in
  List.iter
    (fun (r : Session.srecovery) ->
      if r.Session.rsalvage <> Session.Replayed then
        Alcotest.failf "session %S not replayed whole" r.Session.rname)
    recovered;
  Alcotest.(check (list int)) "every session re-admitted under its old sid" [ a; b ]
    (List.map (fun (r : Session.srecovery) -> r.Session.rsid) recovered);
  List.iter
    (fun (r : Session.srecovery) ->
      Alcotest.(check int)
        (Printf.sprintf "session %d: no stale panes" r.Session.rsid)
        0 r.Session.rstale)
    recovered;
  let after =
    List.map (fun sid -> (sid, pane_state (Option.get (Session.vis srv2 sid))))
      (Session.session_ids srv2)
  in
  Alcotest.(check bool) "pane ids, box ids and pane bytes all reproduced" true
    (before = after);
  (* budgets and fault configs travel with the fleet *)
  Alcotest.(check bool) "budgets restored" true
    ((Option.get (Session.budget_of srv2 b)).Session.max_reads = Some 100_000)

(* A recovery inside an admitted op must not zero the shared target's
   cumulative cache counters: the server diffs them across that op, so a
   reset would book the neighbour's traffic as a negative delta. *)
let test_recover_keeps_counters_non_negative () =
  let kernel = boot () in
  let srv = Session.create kernel in
  Session.add_target srv ~transport:(Transport.create Transport.qemu_local) "wire";
  let a = admitted (Session.open_session ~target:"wire" srv "a") in
  let b = admitted (Session.open_session ~target:"wire" srv "b") in
  List.iter (fun f -> ignore (admitted (Session.vplot srv a (fig f)))) [ "3-4"; "7-1"; "9-2" ];
  ignore (admitted (Session.vplot srv b (fig "3-4")));
  ignore (admitted (Session.recover_session srv b));
  List.iter
    (fun sid ->
      List.iter
        (fun (k, v) ->
          Alcotest.(check bool) (Printf.sprintf "session.%d.%s = %d >= 0" sid k v) true (v >= 0))
        (Session.counters srv sid))
    [ a; b ]

(* ------------------------------------------------------------------ *)
(* Per-op wire policy: nothing outlives the op *)

let timed_out = function Target.Truncated _ | Target.Timed_out _ -> true | _ -> false

(* A session's plot deadline binds its own op only: a direct plot on the
   same target afterwards runs unbudgeted, as if the op never happened,
   and an op that raises leaves the home wire bound as before. *)
let test_deadline_scoped_to_op () =
  let setup () =
    let srv = Session.create (boot ()) in
    Session.add_target srv ~transport:(Transport.create ~seed:7 Target.kgdb_rpi400) "wire";
    let budget = Session.budget ~plot_deadline_ms:3. () in
    let sid = admitted (Session.open_session ~budget ~target:"wire" srv "tight") in
    (srv, sid, Option.get (Session.vis srv sid))
  in
  let direct vis =
    let _, _, st = Visualinux.vplot vis (fig "3-4") in
    (st.Visualinux.boxes, Target.faults vis.Visualinux.target)
  in
  let _, _, control = setup () in
  let boxes0, faults0 = direct control in
  Alcotest.(check bool) "control plot is not truncated" false (List.exists timed_out faults0);
  let srv, sid, vis = setup () in
  let _, _, tight = admitted (Session.vplot srv sid (fig "9-2")) in
  Alcotest.(check bool) "the session's deadline bit its own op" true
    (List.exists timed_out (Session.fault_journal srv sid) && tight.Visualinux.boxes > 0);
  let boxes, faults = direct vis in
  Alcotest.(check int) "direct plot after the op = control" boxes0 boxes;
  Alcotest.(check bool) "no Truncated/Timed_out fault" false (List.exists timed_out faults);
  (match Session.vplot srv sid "define ??? as" with
  | exception Viewcl.Error _ -> ()
  | _ -> Alcotest.fail "a malformed program must raise");
  (* were the op's wire still bound, its 3 ms deadline would truncate
     this cold re-plot *)
  Target.clear_read_cache vis.Visualinux.target;
  let boxes, faults = direct vis in
  Alcotest.(check int) "a raising op leaves the home wire solo: plot = control" boxes0 boxes;
  Alcotest.(check bool) "a raising op leaves the home wire solo: no timeout" false
    (List.exists timed_out faults || Target.deadline_exceeded vis.Visualinux.target)

(* Per-session deltas sum to the global totals: every read, cache
   decision, budget refusal and wire millisecond on the shared link is
   billed to exactly one session, canary resyncs included.  One sick
   session (faults, a retry budget and a deadline) drives the target
   through quarantine, so canaries fire. *)
let test_per_session_conservation () =
  let kernel = Kstate.boot () in
  let w = Workload.create kernel in
  Workload.run w;
  let tr = Transport.create ~seed:7 Target.kgdb_rpi400 in
  let srv = Session.create ~capacity:4 kernel in
  Session.add_target srv ~transport:tr "wire";
  let sessions =
    List.mapi
      (fun i f ->
        let budget =
          if i = 0 then Some (Session.budget ~retry_burst:3 ~plot_deadline_ms:400. ()) else None
        in
        let sid =
          admitted (Session.open_session ?budget ~target:"wire" srv (Printf.sprintf "s%d" (i + 1)))
        in
        let pane, _, _ = admitted (Session.vplot srv sid (fig f)) in
        (sid, pane.Panel.pid))
      [ "9-2"; "3-4"; "3-6"; "7-1" ]
  in
  Session.set_faults srv (fst (List.hd sessions)) (Transport.faults_of_rate 0.2);
  for _ = 1 to 40 do
    Workload.step w;
    Workload.simulate_time w;
    List.iter
      (fun (sid, pane) ->
        match Session.vrefresh srv sid ~pane with _ -> () | exception Viewcl.Error _ -> ())
      sessions
  done;
  let sum name = List.fold_left (fun acc (sid, _) -> acc + Session.counter srv sid name) 0 sessions in
  let sn = Transport.snapshot tr in
  let cs = Target.cache_stats (Option.get (Session.vis srv (fst (List.hd sessions)))).Visualinux.target in
  Alcotest.(check bool) "canaries fired" true (sum "canaries" > 0);
  Alcotest.(check (float 1e-6)) "sum of wire ms = transport clock" sn.Transport.sim_ms
    (List.fold_left (fun acc (sid, _) -> acc +. Session.wire_ms srv sid) 0. sessions);
  Alcotest.(check int) "sum of reads" sn.Transport.reads_ok (sum "reads");
  Alcotest.(check int) "sum of cache hits" cs.Target.hits (sum "cache.hits");
  Alcotest.(check int) "sum of cache misses" cs.Target.misses (sum "cache.misses");
  Alcotest.(check int) "sum of coalesced" cs.Target.coalesced (sum "cache.coalesced");
  Alcotest.(check int) "sum of budget refusals" sn.Transport.deadline_hits (sum "budget.refusals");
  Alcotest.(check (list int)) "pinned totals: reads, hits, misses, coalesced, refusals"
    [ 496; 21316; 203; 288; 16 ]
    [ sn.Transport.reads_ok; cs.Target.hits; cs.Target.misses; cs.Target.coalesced;
      sn.Transport.deadline_hits ];
  Alcotest.(check (float 5e-4)) "pinned wire ms" 6342.446 sn.Transport.sim_ms

(* ------------------------------------------------------------------ *)
(* Obs export: breaker state and cache hit rate as gauges *)

let test_obs_gauges () =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      let kernel = boot () in
      let srv = Session.create kernel in
      Session.add_target srv ~transport:(Transport.create Transport.qemu_local) "wire";
      let a = admitted (Session.open_session ~target:"wire" srv "a") in
      ignore (admitted (Session.vplot srv a (fig "3-4")));
      Alcotest.(check (option (float 0.))) "breaker gauge exported (closed=0)" (Some 0.)
        (Obs.Metrics.gauge "transport.breaker_state");
      ignore (admitted (Session.vplot srv a (fig "3-4")));
      (match Obs.Metrics.gauge "cache.hit_rate" with
      | Some r -> Alcotest.(check bool) "hit-rate gauge in (0,1]" true (r > 0. && r <= 1.)
      | None -> Alcotest.fail "cache.hit_rate gauge must be exported");
      Alcotest.(check bool) "per-session counters mirrored into obs" true
        (Obs.Metrics.counter (Printf.sprintf "session.%d.plots" a) = 2))

let suite =
  [ QCheck_alcotest.to_alcotest compaction_replay_equivalence;
    Alcotest.test_case "compaction: churn collapses to a reserve" `Quick
      test_compaction_drops_churn;
    Alcotest.test_case "auto-compaction bounds the journal" `Quick
      test_auto_compaction_bounds_journal;
    QCheck_alcotest.to_alcotest isolation_under_fault_storm;
    Alcotest.test_case "breaker-Open: quarantine, stale service, fair re-admission" `Quick
      test_breaker_open_quarantine_and_fair_recovery;
    Alcotest.test_case "admission: capacity + budgets are typed rejections" `Quick
      test_capacity_and_budgets;
    Alcotest.test_case "cross-session cache hits" `Quick test_cross_session_cache_hits;
    Alcotest.test_case "fleet recovery reproduces pane and box ids" `Quick
      test_fleet_recovery;
    Alcotest.test_case "recover_session keeps per-session counters >= 0" `Quick
      test_recover_keeps_counters_non_negative;
    Alcotest.test_case "session deadline is scoped to its op" `Quick test_deadline_scoped_to_op;
    Alcotest.test_case "per-session deltas sum to the global totals" `Quick
      test_per_session_conservation;
    Alcotest.test_case "obs gauges: breaker state, cache hit rate" `Quick test_obs_gauges ]
