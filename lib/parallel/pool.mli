(** A hand-rolled, dependency-free domain pool for OCaml 5.

    The switch carries no [domainslib], so this module provides the small
    slice of it the cleaning algorithms need: a persistent pool of worker
    domains and chunked maps whose merge order is {e deterministic} —
    chunk results come back in chunk-index order, never in completion
    order, so any function built on them returns byte-identical results
    at any job count.

    A pool with [jobs = 1] spawns no domains and runs everything in the
    calling domain, making the sequential path literally the same code as
    the parallel one.  The caller also participates in draining the task
    queue while waiting on a batch, so a pool of [jobs = n] uses [n]
    domains in total ([n - 1] workers plus the caller).

    Tasks must not submit further tasks to the same pool (no nested
    parallelism), and anything they touch concurrently must be read-only
    or chunk-private — the intended style is: map chunk-private state,
    then merge sequentially.

    When {!Dq_obs.Metrics} collection is enabled, every {!run} batch
    records the instruments [pool.batches], [pool.tasks],
    [pool.batch_wall] (wall seconds per batch) and [pool.task_busy]
    (per-task busy seconds summed across domains) — utilization over a
    window is [busy / (wall * jobs)].  With metrics disabled (the
    default) the pool takes one atomic read per batch and nothing else. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the CLI's default for
    [--jobs]. *)

val create : jobs:int -> t
(** A pool of [jobs] domains ([jobs - 1] spawned workers; the caller is
    the last).  @raise Invalid_argument if [jobs < 1]. *)

val jobs : t -> int

val shutdown : t -> unit
(** Join the worker domains.  Idempotent.  Outstanding batches must have
    completed (every [run] returns only once its tasks are done, so this
    only matters for exceptional control flow). *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] — even on exceptions.  [jobs] defaults to
    {!default_jobs}. *)

val run : ?deadline:Dq_fault.Deadline.t -> t -> (unit -> unit) array -> unit
(** Execute every task, in parallel, returning once all have finished.

    {b First-failure-wins}: if tasks raise, exactly one exception — the
    first to be recorded — is re-raised in the caller {e with the
    raising task's backtrace}, and only after the whole batch has
    drained (remaining tasks still run; none are interrupted, so the
    pool is left quiescent and reusable).  With [jobs = 1] "first" is
    first in task order; with more jobs it is first in wall-clock
    completion order.  A raising or stalling task can therefore never
    hang the batch: the other tasks finish, then the caller sees the
    failure.

    [deadline] cancels cooperatively: tasks that have not started when
    it expires are skipped (the batch still drains) and
    [Dq_fault.Deadline.Expired] is raised in the caller; a task already
    running always completes.  When a fault plan is armed, every task
    is wrapped in the ["pool.task"] fault site. *)

(** {1 [?pool]-threading conveniences}

    Call sites take a [?pool:t] optional argument; [None] (or a 1-job
    pool, or a trivially small [n]) runs the identical code on a single
    chunk in the calling domain.

    With a [?label] and {!Dq_obs.Trace} collection enabled, every chunk
    runs inside a span of that name ([cat = "pool"], [args] carrying the
    chunk's [lo]/[hi] bounds) on whichever domain executes it — this is
    what renders worker lanes in a trace viewer.  The spans appear on
    the sequential path too (one chunk), so the {e set} of span paths a
    computation produces does not depend on the job count. *)

val for_chunks :
  ?deadline:Dq_fault.Deadline.t ->
  ?chunks:int ->
  ?label:string ->
  t option ->
  n:int ->
  (int -> int -> unit) ->
  unit
(** Run [f lo hi] over [0, n) split into at most [chunks] (default
    {!jobs}) contiguous ranges, in order, sizes differing by at most one;
    sequentially as [f 0 n] when no parallelism applies.  An expired [deadline] raises
    [Dq_fault.Deadline.Expired] on both paths. *)

val map_chunks :
  ?deadline:Dq_fault.Deadline.t ->
  ?chunks:int ->
  ?label:string ->
  t option ->
  n:int ->
  (int -> int -> 'a) ->
  'a list
(** Chunk results in chunk-index order; [[map 0 n]] when sequential
    (and [[]] when [n = 0]). *)

val map_array :
  ?deadline:Dq_fault.Deadline.t ->
  ?chunks:int ->
  ?label:string ->
  t option ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** Element-wise map preserving positions.  Elements of a chunk are
    evaluated in index order within their domain. *)
