(* Sequential extraction over the kgdb wire, pinned; the domain pool's
   own semantics (submission order, exceptions); and the obs clock read
   from several domains. *)

let figs () =
  List.filter
    (fun (sc : Scripts.script) -> List.mem sc.Scripts.fig [ "3-6"; "4-5"; "19-1/2" ])
    Scripts.table2

(* Figures 3-6, 4-5 and 19-1/2 plotted on a fresh kernel, over a
   kgdb_rpi400 transport (seed 7) when [wire], else over no transport
   with the read cache off; returns the renders and the transport's
   counters. *)
let plot_figs ~wire =
  let k = Kstate.boot () in
  let w = Workload.create k in
  Workload.run ~iters:12 w;
  let s = Visualinux.attach k in
  let tgt = s.Visualinux.target in
  let tr = Transport.create ~seed:7 Target.kgdb_rpi400 in
  if wire then Target.set_transport tgt tr else Target.set_read_cache tgt false;
  let renders =
    List.map
      (fun (sc : Scripts.script) ->
        match Viewcl.run ~cfg:s.Visualinux.cfg tgt sc.Scripts.source with
        | res -> Render.ascii res.Viewcl.graph
        | exception Viewcl.Error e -> "ERROR: " ^ e)
      (figs ())
  in
  (renders, Transport.snapshot tr)

(* The wire cost of the figure set, pinned: any change to what a plot
   fetches, or how fetches are merged, moves these numbers.  The cached
   wire plot renders exactly as a transport-less, cache-off plot. *)
let test_sequential_pinned () =
  let renders, sn = plot_figs ~wire:true in
  Alcotest.(check int) "wire attempts" 33 sn.Transport.attempts;
  Alcotest.(check (float 5e-3)) "wire ms" 83.34 sn.Transport.sim_ms;
  let plain, _ = plot_figs ~wire:false in
  Alcotest.(check (list string)) "renders = transport-less, cache-off plot" plain renders

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

let suite =
  [ Alcotest.test_case "sequential: kgdb wire cost pinned" `Quick test_sequential_pinned;
    Alcotest.test_case "pool: run order, executed, steals" `Quick test_run_order_and_steals;
    Alcotest.test_case "pool: lowest-index exception" `Quick test_exception_propagation;
    Alcotest.test_case "clock: concurrent running max" `Quick test_clock_concurrent_monotone ]
