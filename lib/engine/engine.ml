open Dq_relation
open Dq_cfd
open Dq_core

type checkpoint_spec = { path : string; every : int }

type ctx = {
  relation : Relation.t;
  sigma : Cfd.t array;
  pool : Dq_parallel.Pool.t option;
  deadline : Dq_fault.Deadline.t;
  checkpoint : checkpoint_spec option;
  resume : Checkpoint.t option;
  partition : int array option;
  request_id : string option;
}

let ctx ?pool ?(deadline = Dq_fault.Deadline.never) ?checkpoint ?resume
    ?partition ?request_id relation sigma =
  { relation; sigma; pool; deadline; checkpoint; resume; partition; request_id }

(* When the ctx carries a serving request id, every engine invocation
   opens one span annotated with it — the engine's phase spans nest
   inside, so a trace of the daemon groups repair work under the request
   that caused it.  Without an id (the CLI) this is a direct call and
   trace output is unchanged. *)
let with_request_span c f =
  match c.request_id with
  | None -> f ()
  | Some id ->
    Dq_obs.Trace.span ~cat:"serve"
      ~args:(fun () -> [ ("request_id", Dq_obs.Json.String id) ])
      "engine.request" f

module type ENGINE = sig
  val name : string

  val doc : string

  val supports_checkpoint : bool

  val supports_partition : bool

  val supports_ingest : bool

  val fragment : Schema.t -> Cfd.t array -> (unit, string) result

  val run :
    ctx -> ((Relation.t * string) * Dq_obs.Report.t, Dq_error.t) result

  val ingest :
    ctx ->
    Tuple.t list ->
    ((Relation.t * string) * Dq_obs.Report.t, Dq_error.t) result
end

let no_ingest name _ _ =
  Error
    (Dq_error.Engine_unsupported
       {
         engine = name;
         reason =
           "no incremental ingest: this engine repairs whole relations (use \
            an INCREPAIR engine: inc, l-inc or w-inc)";
       })

(* ---- built-in engines -------------------------------------------------- *)

module Batch : ENGINE = struct
  let name = "batch"

  let doc =
    "BATCHREPAIR (Cong et al. 2007): equivalence classes over cells, \
     cost-ordered resolution, any CFD ruleset"

  let supports_checkpoint = true

  let supports_partition = true

  let supports_ingest = false

  let fragment _ _ = Ok ()

  let run c =
    with_request_span c @@ fun () ->
    let checkpoint =
      Option.map
        (fun { path; every } -> { Batch_repair.path; every })
        c.checkpoint
    in
    match
      Batch_repair.repair ?pool:c.pool ~deadline:c.deadline ?checkpoint
        ?resume:c.resume ?partition:c.partition c.relation c.sigma
    with
    | Ok ((repaired, stats), report) ->
      Ok
        ( ( repaired,
            Format.asprintf "batchrepair: %a" Batch_repair.pp_stats stats ),
          report )
    | Error _ as e -> e

  let ingest = no_ingest name
end

(* The three INCREPAIR orderings share one adapter: tuple-at-a-time
   resolution keeps no pass-boundary state, so neither checkpointing nor
   the shard partition applies — but precisely because each tuple is
   resolved against the repair built so far, they are the engines that
   can ingest a delta into a clean relation (what serve sessions do). *)
let inc_engine engine_name ordering : (module ENGINE) =
  (module struct
    let name = engine_name

    let doc =
      Printf.sprintf
        "INCREPAIR (Cong et al. 2007), %s tuple ordering: tuple-at-a-time \
         repair, any CFD ruleset"
        (Inc_repair.ordering_name ordering)

    let supports_checkpoint = false

    let supports_partition = false

    let supports_ingest = true

    let fragment _ _ = Ok ()

    let stats_line stats =
      Format.asprintf "%s: %a"
        (Inc_repair.ordering_name ordering)
        Inc_repair.pp_stats stats

    let run c =
      with_request_span c @@ fun () ->
      match
        Inc_repair.repair_dirty ?pool:c.pool ~ordering ~deadline:c.deadline
          c.relation c.sigma
      with
      | Ok ((repaired, stats), report) ->
        Ok ((repaired, stats_line stats), report)
      | Error _ as e -> e

    let ingest c delta =
      with_request_span c @@ fun () ->
      match
        Inc_repair.repair_inserts ?pool:c.pool ~ordering ~deadline:c.deadline
          c.relation delta c.sigma
      with
      | Ok ((repaired, stats), report) ->
        Ok ((repaired, stats_line stats), report)
      | Error _ as e -> e
  end)

module Opt_fd : ENGINE = struct
  let name = Opt_fd_repair.engine_name

  let doc =
    "optimal value repair for acyclic FD-only rulesets \
     (Livshits-Kimelfeld-Roy): one topological sweep, per-class \
     weighted-medoid assignment"

  let supports_checkpoint = true

  (* The sweep already treats every RHS attribute independently, so the
     shard partition cannot change its result: accepting --partition is a
     provable no-op rather than a refusal. *)
  let supports_partition = true

  let supports_ingest = false

  let fragment = Opt_fd_repair.fragment

  let run c =
    with_request_span c @@ fun () ->
    let checkpoint =
      Option.map
        (fun { path; every } -> { Opt_fd_repair.path; every })
        c.checkpoint
    in
    match
      Opt_fd_repair.repair ?pool:c.pool ~deadline:c.deadline ?checkpoint
        ?resume:c.resume c.relation c.sigma
    with
    | Ok ((repaired, stats), report) ->
      Ok
        ( ( repaired,
            Format.asprintf "%s: %a" Opt_fd_repair.engine_name
              Opt_fd_repair.pp_stats stats ),
          report )
    | Error _ as e -> e

  let ingest = no_ingest name
end

(* ---- registry ---------------------------------------------------------- *)

let builtin : (module ENGINE) list =
  [
    (module Batch);
    inc_engine "inc" Inc_repair.By_violations;
    inc_engine "l-inc" Inc_repair.Linear;
    inc_engine "w-inc" Inc_repair.By_weight;
    (module Opt_fd);
  ]

let registered : (module ENGINE) list ref = ref []

let register e = registered := !registered @ [ e ]

let all () = builtin @ !registered

let names () = List.map (fun (module E : ENGINE) -> E.name) (all ())

(* Historical engine spellings that map onto registry names. *)
let aliases = [ ("v-inc", "inc") ]

let find name =
  let canonical =
    match List.assoc_opt name aliases with Some n -> n | None -> name
  in
  let matches (module E : ENGINE) = String.equal E.name canonical in
  match List.find_opt matches (List.rev !registered) with
  | Some e -> Ok e
  | None -> (
    match List.find_opt matches builtin with
    | Some e -> Ok e
    | None -> Error (Dq_error.Unknown_engine { name; known = names () }))

let check_fragment (module E : ENGINE) schema sigma =
  match E.fragment schema sigma with
  | Ok () -> Ok ()
  | Error reason ->
    Error (Dq_error.Engine_unsupported { engine = E.name; reason })
