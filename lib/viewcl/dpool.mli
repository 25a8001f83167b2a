(** A work-stealing pool of OCaml 5 domains.

    Nothing in [lib/] submits to this pool: extraction is sequential
    (one serial wire prices every read, so splitting a plot across
    domains bought no speedup; see DESIGN.md §14).  It remains only
    for the probes of [perfbench/], which still compiles against it,
    and is due for deletion together with them.

    The pool has [n] members: the caller (slot 0) plus [n-1] spawned
    domains.  {!run} pushes a batch of thunks onto the submitting
    member's own deque and the caller {e helps}: it executes its own
    deque LIFO while idle members steal FIFO from the tails, and it
    returns only when the whole batch has drained — results in
    submission order, first raised exception (by submission index)
    re-raised.  [create 1] spawns nothing; {!run} then executes the
    batch on the caller. *)

type t

val create : int -> t
(** [create n] — a pool of [max 1 n] members ([n-1] spawned domains).
    Spawned domains idle on a condition until work arrives; call
    {!shutdown} when done with the pool. *)

val run : t -> (unit -> 'a) list -> 'a list
(** Execute a batch; blocks (helping) until every task finished.
    Results in submission order.  If tasks raised, the lowest-index
    exception is re-raised after the batch drains.  Reentrant: a task
    may itself call [run] on the same pool (it pushes to the deque of
    the member executing it and helps the nested batch drain). *)

val timings : t -> float list
(** Host wall in ms of every task completed since the last
    {!reset_timings}, in completion order. *)

val reset_timings : t -> unit

val executed : t -> int
(** Tasks completed over the pool's lifetime. *)

val steals : t -> int
(** Tasks taken from another member's deque — 0 on a 1-pool. *)

val shutdown : t -> unit
(** Stop and join the spawned domains.  Idempotent. *)
