(** A work-stealing pool of OCaml 5 domains for parallel extraction.

    The pool has [n] members: the caller (slot 0) plus [n-1] spawned
    domains.  {!run} pushes a batch of thunks onto the submitting
    member's own deque and the caller {e helps}: it executes its own
    deque LIFO while idle members steal FIFO from the tails, and it
    returns only when the whole batch has drained — results in
    submission order, first raised exception (by submission index)
    re-raised.  [create 1] spawns nothing; {!run} then executes the
    batch on the caller, making one pool the identity baseline that
    [--domains N] runs are compared against.  {!run} is the only way
    to submit work, and {!timings} holds only what the pool itself
    timed: the host wall of each task it ran.

    The pool schedules; it does not make lane execution deterministic.
    That is the submitted tasks' contract: each must depend only on its
    own lane id and inputs (per-lane Kmem views, targets, rng streams —
    see {!Interp}), never on which domain ran it or in what order. *)

type t

val create : int -> t
(** [create n] — a pool of [max 1 n] members ([n-1] spawned domains).
    Spawned domains idle on a condition until work arrives; call
    {!shutdown} when done with the pool. *)

val size : t -> int
(** Members, including the caller. *)

val run : t -> (unit -> 'a) list -> 'a list
(** Execute a batch; blocks (helping) until every task finished.
    Results in submission order.  If tasks raised, the lowest-index
    exception is re-raised after the batch drains.  Reentrant: a task
    may itself call [run] on the same pool (it pushes to the deque of
    the member executing it and helps the nested batch drain). *)

val timings : t -> float list
(** Per-task cost in ms of every task completed since the last
    {!reset_timings}, in completion order — the per-lane busy times
    {!model_speedup} schedules. *)

val reset_timings : t -> unit

val executed : t -> int
(** Tasks completed over the pool's lifetime. *)

val steals : t -> int
(** Tasks taken from another member's deque — 0 on a 1-pool. *)

val shutdown : t -> unit
(** Stop and join the spawned domains.  Idempotent. *)

val default_domains : unit -> int
(** [VISUALINUX_DOMAINS] (clamped to [1..64]), or 1 when unset or
    unparsable — the pool size ambient consumers (session boot, cold
    vplot) use. *)

val model_speedup : domains:int -> serial_ms:float -> float list -> float
(** [model_speedup ~domains ~serial_ms busy] — the plot-level speedup
    an LPT greedy schedule of the measured lane busy times [busy] onto
    [domains] bins predicts, with the un-sharded remainder
    [serial_ms - sum busy] kept serial:
    [serial_ms / (serial_ms - sum busy + makespan)].  Pure; 1.0 for
    [domains <= 1] or an empty batch.  This is the machine-independent
    figure the par gate checks — measured wall time on a host with
    fewer cores than domains says nothing about the schedule, the busy
    times still do. *)
