(* Parallel extraction: the cross-domain identity contract, pool
   semantics (submission order, exceptions, lane timings), and the
   schedule model. *)

let figs () =
  List.filter
    (fun (sc : Scripts.script) -> List.mem sc.Scripts.fig [ "3-6"; "4-5"; "19-1/2" ])
    Scripts.table2

type outcome = {
  renders : string list;
  journal : string list;
  reads : int;
  bytes : int;
  fired : int;
  attempts : int;  (** wire attempts, lane misses replayed at the join included *)
  sim_ms : float;
  cache : Target.cache_stats;
  tasks : int;  (** lane tasks the pool ran (0 without a pool) *)
  busy_ms : float;  (** sum of the pool's per-task timings (0 without a pool) *)
  host_ms : float;  (** host wall of the plot calls, no simulated wire *)
}

(* One full extraction pass over a fresh kernel, mirroring the bench's
   par harness: kgdb-priced transport (set up further by [wire]), read
   under [op], optional split chaos, optional read-failure injection,
   every figure plotted through a [pool_size]-member pool, or through
   no pool at all without [pool_size]. *)
let run_figs ?pool_size ?(wire = ignore) ?op ~chaos ~inject () =
  let k = Kstate.boot () in
  let w = Workload.create k in
  Workload.run ~iters:12 w;
  let tr = Transport.create ~seed:7 Target.kgdb_rpi400 in
  wire tr;
  let s = Visualinux.attach k in
  let tgt = s.Visualinux.target in
  Target.set_transport ?op tgt tr;
  let pool = Option.map Viewcl.Dpool.create pool_size in
  let c =
    if chaos then begin
      let c = Workload.Chaos.create ~seed:11 w ~rate:0.3 in
      Workload.Chaos.arm_split c tgt;
      Some c
    end
    else None
  in
  if inject then Kmem.inject_read_failures k.Kstate.ctx.Kcontext.mem ~seed:5 0.02;
  let host_ms = ref 0. in
  let renders =
    List.map
      (fun (sc : Scripts.script) ->
        let t0 = Unix.gettimeofday () in
        let r =
          match Viewcl.run ~cfg:s.Visualinux.cfg ?pool tgt sc.Scripts.source with
          | res -> Render.ascii res.Viewcl.graph
          | exception Viewcl.Error e -> "ERROR: " ^ e
        in
        host_ms := !host_ms +. ((Unix.gettimeofday () -. t0) *. 1000.);
        r)
      (figs ())
  in
  if chaos then Workload.Chaos.disarm tgt;
  if inject then Kmem.clear_injection k.Kstate.ctx.Kcontext.mem;
  let st = Target.stats tgt in
  let sn = Transport.snapshot tr in
  let r =
    { renders;
      journal = List.map Target.fault_to_string (Target.faults tgt);
      reads = st.Target.reads;
      bytes = st.Target.bytes;
      fired =
        (match c with
        | Some c -> Workload.Chaos.fired c + Workload.Chaos.split_fired c
        | None -> 0);
      attempts = sn.Transport.attempts;
      sim_ms = sn.Transport.sim_ms;
      cache = Target.cache_stats tgt;
      tasks = Option.fold ~none:0 ~some:Viewcl.Dpool.executed pool;
      busy_ms =
        Option.fold ~none:0.
          ~some:(fun p -> List.fold_left ( +. ) 0. (Viewcl.Dpool.timings p))
          pool;
      host_ms = !host_ms }
  in
  Option.iter Viewcl.Dpool.shutdown pool;
  Visualinux.detach s;
  r

let check_identity name a b =
  Alcotest.(check (list string)) (name ^ ": renders") a.renders b.renders;
  Alcotest.(check (list string)) (name ^ ": journal") a.journal b.journal;
  Alcotest.(check int) (name ^ ": reads") a.reads b.reads;
  Alcotest.(check int) (name ^ ": bytes") a.bytes b.bytes;
  Alcotest.(check int) (name ^ ": fired") a.fired b.fired;
  (* lanes warm-start from the parent's read cache as of submission;
     a snapshot taken when the lane runs would move these *)
  Alcotest.(check int) (name ^ ": wire attempts") a.attempts b.attempts;
  Alcotest.(check (float 0.)) (name ^ ": wire ms") a.sim_ms b.sim_ms;
  Alcotest.(check (triple int int int))
    (name ^ ": cache hits/misses/coalesced")
    (a.cache.Target.hits, a.cache.Target.misses, a.cache.Target.coalesced)
    (b.cache.Target.hits, b.cache.Target.misses, b.cache.Target.coalesced)

let test_identity_plain () =
  let r1 = run_figs ~pool_size:1 ~chaos:false ~inject:false () in
  let r2 = run_figs ~pool_size:2 ~chaos:false ~inject:false () in
  let r4 = run_figs ~pool_size:4 ~chaos:false ~inject:false () in
  check_identity "1v2" r1 r2;
  check_identity "1v4" r1 r4;
  Alcotest.(check bool) "the pooled runs split" true (r1.tasks > 0);
  (* the classic unsharded interpreter over the same wire is a third
     route to the same plot: lane merge must be invisible in the graph,
     and lanes' replayed misses must cost exactly the sequential plot's
     wire and cache counters *)
  check_identity "seq v1" (run_figs ~chaos:false ~inject:false ()) r1

let test_identity_chaos () =
  let r1 = run_figs ~pool_size:1 ~chaos:true ~inject:false () in
  let r4 = run_figs ~pool_size:4 ~chaos:true ~inject:false () in
  check_identity "chaos 1v4" r1 r4;
  Alcotest.(check bool) "chaos actually fired" true (r1.fired > 0)

(* A wire that could refuse a fetch never splits: lanes' misses could
   not be replayed exactly.  The pooled plot runs no lane task and is
   the pool-less plot, fault journal and wire counters included. *)
let test_fallible_wire_never_splits () =
  let flaky = { Transport.no_faults with Transport.stall_rate = 0.05; drop_rate = 0.1 } in
  let solo = Transport.solo in
  List.iter
    (fun (name, wire, op) ->
      let seq = run_figs ~wire ~op ~chaos:false ~inject:false () in
      let par = run_figs ~pool_size:2 ~wire ~op ~chaos:false ~inject:false () in
      Alcotest.(check int) (name ^ ": no lane task ran") 0 par.tasks;
      check_identity name seq par)
    [ ("faults", ignore, { solo with faults = flaky });
      ("base faults", (fun tr -> Transport.set_base_faults tr flaky), solo);
      ("deadline", ignore, { solo with deadline_ms = Some 60. });
      ("gate", ignore, { solo with admit = Some (fun ~bytes:_ -> None) });
      ("retry gate", ignore, { solo with retry = Some (fun () -> true) }) ]

let test_identity_inject () =
  let r1 = run_figs ~pool_size:1 ~chaos:false ~inject:true () in
  let r4 = run_figs ~pool_size:4 ~chaos:false ~inject:true () in
  check_identity "inject 1v4" r1 r4;
  Alcotest.(check bool) "injection left a journal" true (List.length r1.journal > 0)

(* ---------------- pool semantics ---------------- *)

let test_run_order_and_steals () =
  let p = Viewcl.Dpool.create 4 in
  let res = Viewcl.Dpool.run p (List.init 100 (fun i () -> i * i)) in
  Alcotest.(check (list int)) "results in submission order" (List.init 100 (fun i -> i * i)) res;
  Alcotest.(check int) "all tasks executed" 100 (Viewcl.Dpool.executed p);
  Viewcl.Dpool.shutdown p;
  let p1 = Viewcl.Dpool.create 1 in
  ignore (Viewcl.Dpool.run p1 (List.init 10 (fun i () -> i)));
  Alcotest.(check int) "1-pool never steals" 0 (Viewcl.Dpool.steals p1);
  Viewcl.Dpool.shutdown p1

exception Boom of int

let test_exception_propagation () =
  let p = Viewcl.Dpool.create 2 in
  (match
     Viewcl.Dpool.run p
       (List.init 10 (fun i () -> if i >= 4 then raise (Boom i) else i))
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> Alcotest.(check int) "lowest-index exception wins" 4 i);
  Viewcl.Dpool.shutdown p

(* The pool times only the lane tasks it runs: host compute, never the
   simulated wire (lanes own none) nor the serial walk that feeds them.
   On a 1-pool every task runs on the caller inside a plot call, so the
   timings cannot exceed the plots' host wall. *)
let test_timings_are_lane_compute () =
  let r = run_figs ~pool_size:1 ~chaos:false ~inject:false () in
  Alcotest.(check bool) "the pool ran lane tasks" true (r.tasks > 0);
  if r.busy_ms > r.host_ms then
    Alcotest.failf "pool timings %.3f ms exceed the plots' host wall %.3f ms" r.busy_ms
      r.host_ms

let test_clock_concurrent_monotone () =
  let worst = Atomic.make 0. in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let prev = ref (Obs.Clock.now_ms ()) in
            for _ = 1 to 10_000 do
              let t = Obs.Clock.now_ms () in
              if t < !prev then Atomic.set worst (!prev -. t);
              prev := t
            done;
            !prev))
  in
  let finals = List.map Domain.join domains in
  Alcotest.(check (float 0.)) "no domain saw time go backwards" 0. (Atomic.get worst);
  let now = Obs.Clock.now_ms () in
  List.iter (fun f -> Alcotest.(check bool) "running max holds" true (now >= f)) finals

(* ---------------- schedule model ---------------- *)

let test_model_speedup_math () =
  let feq name a b = Alcotest.(check (float 1e-9)) name a b in
  feq "1 domain is the baseline" 1.0
    (Viewcl.Dpool.model_speedup ~domains:1 ~serial_ms:100. [ 50. ]);
  feq "empty batch" 1.0 (Viewcl.Dpool.model_speedup ~domains:4 ~serial_ms:100. []);
  feq "perfect split" 2.0
    (Viewcl.Dpool.model_speedup ~domains:2 ~serial_ms:100. [ 25.; 25.; 25.; 25. ]);
  (* 20ms serial remainder + 40ms makespan *)
  feq "amdahl remainder" (100. /. 60.)
    (Viewcl.Dpool.model_speedup ~domains:2 ~serial_ms:100. [ 40.; 40. ])

let prop_model_bounded =
  QCheck.Test.make ~count:200 ~name:"model speedup stays within [1, domains]"
    QCheck.(pair (int_range 2 8) (list_of_size Gen.(int_range 1 40) (float_range 0.1 50.)))
    (fun (domains, busy) ->
      let total = List.fold_left ( +. ) 0. busy in
      let m = Viewcl.Dpool.model_speedup ~domains ~serial_ms:(total +. 10.) busy in
      m >= 1.0 && m <= float_of_int domains +. 1e-9)

let suite =
  [ Alcotest.test_case "identity: plain, domains 1/2/4 + seq" `Quick test_identity_plain;
    Alcotest.test_case "identity: split chaos, domains 1/4" `Quick test_identity_chaos;
    Alcotest.test_case "identity: injection, domains 1/4" `Quick test_identity_inject;
    Alcotest.test_case "a fallible wire never splits" `Quick test_fallible_wire_never_splits;
    Alcotest.test_case "pool: run order, executed, steals" `Quick test_run_order_and_steals;
    Alcotest.test_case "pool: lowest-index exception" `Quick test_exception_propagation;
    Alcotest.test_case "pool: timings are lane compute" `Quick test_timings_are_lane_compute;
    Alcotest.test_case "clock: concurrent running max" `Quick test_clock_concurrent_monotone;
    Alcotest.test_case "model: LPT + amdahl arithmetic" `Quick test_model_speedup_math;
    QCheck_alcotest.to_alcotest prop_model_bounded ]
