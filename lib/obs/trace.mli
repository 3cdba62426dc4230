(** Hierarchical span tracing in Chrome trace-event form.

    Where {!Metrics} aggregates (how many merges, total seconds in a
    phase), a trace keeps every occurrence: a {e span} is one timed
    interval with a name, a category, the thread it ran on, and optional
    arguments (tuple and clause counts, pass numbers).  Spans nest — the
    engines open one around each {!Report} phase and finer-grained ones
    inside the hot paths (per resolution pass and per equivalence-class
    merge in BATCHREPAIR, per [TUPLERESOLVE] in INCREPAIR, per worker
    chunk inside {!Dq_parallel.Pool}) — so loading the dump in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto} shows
    where a repair's time actually goes, with [--jobs n] rendering as
    [n] parallel lanes.

    Collection rides the same kind of atomic gate as {!Metrics}: off by
    default, one atomic read per {!span} call when disabled, switched on
    by [--trace FILE] in the CLI and the bench harness.

    {2 Determinism contract}

    Span {e names and nesting} are part of the engines' deterministic
    surface: the set of distinct span paths (see {!type:event}[.path])
    produced by a run is identical at any [--jobs] count.  Timestamps,
    durations, event multiplicities of worker-chunk spans (one per
    chunk) and thread ids are measurement and vary run to run — the
    same split {!Report.stable_json} makes for reports. *)

type context
(** The calling thread's current span stack.  Each systhread — a serve
    request handler as much as a worker domain — has its own, so threads
    sharing a domain never nest inside each other's spans.
    {!Dq_parallel.Pool} captures the stack when a batch is submitted and
    installs it in the worker domains, so a chunk span's logical parent is
    the span that submitted the batch even though it runs on another
    thread (lane). *)

type event = {
  ph : [ `B | `E ];  (** span begin / span end *)
  name : string;
  cat : string;
  ts : float;  (** microseconds since the trace was enabled/cleared *)
  tid : int;  (** id of the systhread the span ran on ([Thread.id]) *)
  path : string list;
      (** enclosing span names, outermost first, ending with this span's
          own name — the logical position in the span tree, independent
          of which thread lane the span landed on *)
  args : (string * Json.t) list;  (** on [`B] events; [[]] on [`E] *)
}

val set_enabled : bool -> unit
(** Turn collection on or off (off initially).  Turning it on resets the
    timestamp origin. *)

val enabled : unit -> bool

val clear : unit -> unit
(** Drop all buffered events and reset the timestamp origin. *)

val span :
  ?cat:string ->
  ?args:(unit -> (string * Json.t) list) ->
  string ->
  (unit -> 'a) ->
  'a
(** [span name f] runs [f] inside a span.  When collection is disabled
    this is one atomic read and a direct call — [args] is a thunk so
    argument construction costs nothing unless a trace is being taken.
    The end event is emitted even on exceptional exit. *)

val current_context : unit -> context

val with_context : context -> (unit -> 'a) -> 'a
(** Run the thunk with the given span stack installed in this thread
    (restored afterwards) — how pool workers inherit their submitter's
    position in the span tree. *)

val events : unit -> event list
(** Buffered events in emission order.  The subsequence of any one [tid]
    is properly nested (B/E balance like brackets); the test suite's
    well-formedness checks run on this view. *)

val to_json : unit -> Json.t
(** The buffer in Chrome trace-event JSON object form:
    [{"traceEvents": [{"cat", "name", "ph", "ts", "pid", "tid",
    "args"}, ...], "displayTimeUnit": "ms"}] — loadable directly in
    [chrome://tracing] and Perfetto. *)

val write : string -> unit
(** Dump {!to_json} to a file.  @raise Sys_error on I/O failure. *)
