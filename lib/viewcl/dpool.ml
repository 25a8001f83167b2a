(* A small work-stealing pool of OCaml 5 domains for parallel
   extraction.  One deque per member (slot 0 is the caller, who helps
   drain every batch it submits); push and LIFO pop happen at a
   member's own deque, idle members steal FIFO from the others' tails.
   All deque traffic runs under one pool mutex — batches are tens of
   coarse lane tasks, so lock-free deques would buy nothing here —
   and a single condition carries both "work arrived" and "a task
   finished".  Determinism is the caller's contract, not the pool's:
   results come back in submission order whatever the interleaving,
   and lane tasks must depend only on their lane id (see Interp). *)

let wid_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

type t = {
  size : int; (* members, including the caller *)
  mutex : Mutex.t;
  cond : Condition.t;
  deques : (unit -> unit) list ref array; (* head = bottom (LIFO end) *)
  mutable live : bool;
  mutable domains : unit Domain.t list;
  mutable times_ms : float list; (* per-task wall ms, newest first *)
  mutable executed : int;
  mutable stolen : int;
}

let pop_own dq =
  match !dq with [] -> None | f :: rest -> dq := rest; Some f

let steal_tail dq =
  match List.rev !dq with
  | [] -> None
  | f :: rest -> dq := List.rev rest; Some f

(* With [t.mutex] held: own deque bottom first, then scan the others
   round-robin from [wid+1] and steal from the tail. *)
let take t wid =
  match pop_own t.deques.(wid) with
  | Some f -> Some f
  | None ->
      let n = Array.length t.deques in
      let rec scan k =
        if k = n then None
        else
          match steal_tail t.deques.((wid + k) mod n) with
          | Some f -> t.stolen <- t.stolen + 1; Some f
          | None -> scan (k + 1)
      in
      scan 1

let rec worker t wid =
  Mutex.lock t.mutex;
  let next =
    match take t wid with
    | Some f -> Mutex.unlock t.mutex; f (); true
    | None ->
        if t.live then (Condition.wait t.cond t.mutex; Mutex.unlock t.mutex; true)
        else (Mutex.unlock t.mutex; false)
  in
  if next then worker t wid

let create n =
  let size = max 1 n in
  let t =
    { size; mutex = Mutex.create (); cond = Condition.create ();
      deques = Array.init size (fun _ -> ref []); live = true; domains = [];
      times_ms = []; executed = 0; stolen = 0 }
  in
  t.domains <-
    List.init (size - 1) (fun i ->
        let wid = i + 1 in
        Domain.spawn (fun () -> Domain.DLS.set wid_key wid; worker t wid));
  t

let size t = t.size

(* A batch is settled in submission order: each task files its result
   under its index and the submitter helps drain until every task of
   the batch has finished. *)
let run t thunks =
  let n = List.length thunks in
  let finished = ref 0 and out = ref [] in
  let task i thunk () =
    let t0 = Unix.gettimeofday () in
    let r = try Ok (thunk ()) with e -> Error e in
    let dt = (Unix.gettimeofday () -. t0) *. 1000. in
    Mutex.lock t.mutex;
    out := (i, r) :: !out;
    incr finished;
    t.times_ms <- dt :: t.times_ms;
    t.executed <- t.executed + 1;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex
  in
  let wid = Domain.DLS.get wid_key in
  let dq = t.deques.(wid) in
  Mutex.lock t.mutex;
  List.iteri (fun i thunk -> dq := task i thunk :: !dq) thunks;
  Condition.broadcast t.cond;
  let rec help () =
    if !finished < n then
      match take t wid with
      | Some f -> Mutex.unlock t.mutex; f (); Mutex.lock t.mutex; help ()
      | None -> Condition.wait t.cond t.mutex; help ()
  in
  help ();
  let results = !out in
  Mutex.unlock t.mutex;
  let sorted = List.sort (fun (i, _) (j, _) -> compare i j) results in
  List.map (function _, Ok v -> v | _, Error e -> raise e) sorted

let timings t =
  Mutex.lock t.mutex;
  let l = List.rev t.times_ms in
  Mutex.unlock t.mutex;
  l

let reset_timings t =
  Mutex.lock t.mutex;
  t.times_ms <- [];
  Mutex.unlock t.mutex

let executed t = t.executed
let steals t = t.stolen

let shutdown t =
  Mutex.lock t.mutex;
  t.live <- false;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

let default_domains () =
  match Sys.getenv_opt "VISUALINUX_DOMAINS" with
  | Some s ->
      (match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> min n 64
      | _ -> 1)
  | None -> 1

(* LPT (longest-processing-time-first) greedy schedule of the measured
   lane busy times onto [domains] bins.  [serial_ms] is the whole
   plot's wall time at one domain; the un-sharded remainder
   [serial_ms - sum durations] stays serial in the model.  This is the
   machine-independent speedup the par gate uses: on a box with fewer
   cores than domains, measured wall time says nothing about the
   schedule, but the busy times still do. *)
let model_speedup ~domains ~serial_ms durations =
  let total = List.fold_left ( +. ) 0. durations in
  let serial_ms = Float.max serial_ms total in
  if domains <= 1 || total <= 0. || serial_ms <= 0. then 1.0
  else begin
    let bins = Array.make domains 0. in
    List.iter
      (fun d ->
        let m = ref 0 in
        Array.iteri (fun i v -> if v < bins.(!m) then m := i) bins;
        bins.(!m) <- bins.(!m) +. d)
      (List.sort (fun a b -> Float.compare b a) durations);
    let makespan = Array.fold_left Float.max 0. bins in
    serial_ms /. (serial_ms -. total +. makespan)
  end
