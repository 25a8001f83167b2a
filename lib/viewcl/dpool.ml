(* A small work-stealing pool of OCaml 5 domains; nothing in lib/
   submits to it (see dpool.mli).  One deque per member (slot 0 is the
   caller, who helps drain every batch it submits); push and LIFO pop happen at a
   member's own deque, idle members steal FIFO from the others' tails.
   All deque traffic runs under one pool mutex — batches are tens of
   coarse tasks, so lock-free deques would buy nothing here — and a
   single condition carries both "work arrived" and "a task finished".
   Results come back in submission order whatever the interleaving. *)

let wid_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

type t = {
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
    { mutex = Mutex.create (); cond = Condition.create ();
      deques = Array.init size (fun _ -> ref []); live = true; domains = [];
      times_ms = []; executed = 0; stolen = 0 }
  in
  t.domains <-
    List.init (size - 1) (fun i ->
        let wid = i + 1 in
        Domain.spawn (fun () -> Domain.DLS.set wid_key wid; worker t wid));
  t

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
