(* Differential cross-engine suite: every registered engine must satisfy
   the {!Dq_engine.Engine.ENGINE} contract on random instances — a
   Σ-consistent repair, byte-identical output at any job count (and under
   the shard partition where supported), a replayable provenance trail —
   and the opt-fd engine must additionally beat (or tie) BATCHREPAIR's
   cost on its own fragment, since it is optimal there. *)

open Dq_relation
open Dq_cfd
open Dq_core
open Dq_engine
open Helpers.Gen

let satisfiable sigma = Satisfiability.is_satisfiable schema sigma

let engine name =
  match Engine.find name with
  | Ok e -> e
  | Error e -> Alcotest.failf "Engine.find %s: %s" name (Dq_error.to_string e)

let run ?pool ?deadline ?checkpoint ?resume ?partition name rel sigma =
  let (module E : Engine.ENGINE) = engine name in
  Helpers.ok2
    (E.run (Engine.ctx ?pool ?deadline ?checkpoint ?resume ?partition rel sigma))

let repair_of ?pool ?deadline ?checkpoint ?resume ?partition name rel sigma =
  fst
    (fst (run ?pool ?deadline ?checkpoint ?resume ?partition name rel sigma))

let all_names = [ "batch"; "inc"; "l-inc"; "w-inc"; "opt-fd" ]

(* ---- generators --------------------------------------------------------- *)

(* A pure-FD acyclic Σ over the fixed A..D attribute order: every clause
   is all-wildcard and its RHS attribute index is strictly greater than
   each LHS index, so the attribute dependency graph can only point
   "rightwards" and is acyclic by construction.  Exactly the opt-fd
   fragment. *)
let fd_clause_gen =
  QCheck.Gen.(
    let* rhs_idx = 1 -- (List.length attrs - 1) in
    let candidates = List.filteri (fun i _ -> i < rhs_idx) attrs in
    let* lhs_size = 1 -- List.length candidates in
    let* perm = shuffle_l candidates in
    let lhs_attrs = List.filteri (fun i _ -> i < lhs_size) perm in
    return
      (Cfd.make schema
         ~lhs:(List.map (fun a -> (a, Pattern.Wild)) lhs_attrs)
         ~rhs:(List.nth attrs rhs_idx, Pattern.Wild)))

let fd_sigma_gen =
  QCheck.Gen.(map (fun l -> Cfd.number l) (list_size (1 -- 5) fd_clause_gen))

let fd_instance = QCheck.make QCheck.Gen.(pair relation_gen fd_sigma_gen)

(* ---- differential properties ------------------------------------------- *)

let prop_all_engines_satisfy =
  QCheck.Test.make
    ~name:"every engine yields a Σ-consistent repair (general Σ)" ~count:80
    instance
    (fun (rel, sigma) ->
      QCheck.assume (satisfiable sigma);
      List.for_all
        (fun name ->
          let (module E : Engine.ENGINE) = engine name in
          match E.fragment schema sigma with
          | Error _ -> true (* rejected up front, nothing to check *)
          | Ok () ->
            let repaired = repair_of name rel sigma in
            Violation.satisfies repaired sigma)
        all_names)

let prop_fd_fragment_differential =
  QCheck.Test.make
    ~name:"every engine repairs the FD-only fragment consistently" ~count:100
    fd_instance
    (fun (rel, sigma) ->
      List.for_all
        (fun name ->
          let (module E : Engine.ENGINE) = engine name in
          (match E.fragment schema sigma with
          | Ok () -> ()
          | Error reason ->
            QCheck.Test.fail_reportf "%s rejected a pure-FD acyclic Σ: %s"
              name reason);
          Violation.satisfies (repair_of name rel sigma) sigma)
        all_names)

let prop_opt_fd_cost_le_batch =
  QCheck.Test.make ~name:"opt-fd cost is at most batch cost on FD-only Σ"
    ~count:150 fd_instance
    (fun (rel, sigma) ->
      let batch = repair_of "batch" rel sigma in
      let opt = repair_of "opt-fd" rel sigma in
      let cost r = Cost.repair_cost ~original:rel ~repair:r in
      if cost opt <= cost batch +. 1e-9 then true
      else
        QCheck.Test.fail_reportf "opt-fd cost %.6f > batch cost %.6f"
          (cost opt) (cost batch))

let prop_engines_jobs_invariant =
  QCheck.Test.make
    ~name:"each engine's repair is byte-identical at jobs 1 and 4" ~count:40
    fd_instance
    (fun (rel, sigma) ->
      List.for_all
        (fun name ->
          let at jobs =
            Dq_parallel.Pool.with_pool ~jobs @@ fun pool ->
            Csv.save_string (repair_of ~pool name rel sigma)
          in
          String.equal (at 1) (at 4))
        all_names)

let prop_partition_invariant =
  QCheck.Test.make
    ~name:"--partition leaves batch and opt-fd output byte-identical"
    ~count:40 fd_instance
    (fun (rel, sigma) ->
      let partition =
        (Dq_analysis.Interaction.analyze schema sigma)
          .Dq_analysis.Interaction.partition
      in
      List.for_all
        (fun name ->
          let plain = Csv.save_string (repair_of name rel sigma) in
          let sharded = Csv.save_string (repair_of ~partition name rel sigma) in
          String.equal plain sharded)
        [ "batch"; "opt-fd" ])

let prop_provenance_replays =
  QCheck.Test.make
    ~name:"every engine's provenance trail replays to its repair" ~count:60
    fd_instance
    (fun (rel, sigma) ->
      List.for_all
        (fun name ->
          let (repaired, _), report = run name rel sigma in
          let replayed =
            Dq_obs.Provenance.replay rel report.Dq_obs.Report.provenance
          in
          Relation.dif repaired replayed = 0)
        all_names)

(* ---- unit tests: checkpoint/resume and fault plans ---------------------- *)

let with_tmp f =
  let path = Filename.temp_file "engines" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* Figure-2-style FD ruleset on the shared order schema: acyclic and
   pure-FD, so opt-fd accepts it. *)
let fd_fixture () =
  let rel = Helpers.fig1_db () in
  let sigma =
    Cfd.number
      (List.concat_map
         (Cfd.normalize Helpers.order_schema)
         [ Helpers.phi3; Helpers.phi4 ])
  in
  (rel, sigma)

let test_opt_fd_checkpoint_resume () =
  let rel, sigma = fd_fixture () in
  let direct = Csv.save_string (repair_of "opt-fd" rel sigma) in
  with_tmp @@ fun path ->
  (* Cut after the first stratum: the run is degraded and leaves a
     checkpoint behind... *)
  let (_, _), report =
    run
      ~deadline:(Dq_fault.Deadline.after_passes 1)
      ~checkpoint:{ Engine.path; every = 1 } "opt-fd" rel sigma
  in
  Alcotest.(check bool)
    "first run is degraded" true
    (report.Dq_obs.Report.degraded <> None);
  let cp =
    match Checkpoint.load path with
    | Ok cp -> cp
    | Error e -> Alcotest.failf "checkpoint load: %s" e
  in
  Alcotest.(check string)
    "checkpoint kind" Checkpoint.opt_fd_kind cp.Checkpoint.kind;
  (* ...and resuming from it finishes the job byte-identically. *)
  let resumed = Csv.save_string (repair_of ~resume:cp "opt-fd" rel sigma) in
  Alcotest.(check string) "resume completes the direct repair" direct resumed

let test_cross_engine_resume_refused () =
  let rel, sigma = fd_fixture () in
  with_tmp @@ fun path ->
  let (_ : (Relation.t * string) * Dq_obs.Report.t) =
    run
      ~deadline:(Dq_fault.Deadline.after_passes 1)
      ~checkpoint:{ Engine.path; every = 1 } "opt-fd" rel sigma
  in
  let cp =
    match Checkpoint.load path with
    | Ok cp -> cp
    | Error e -> Alcotest.failf "checkpoint load: %s" e
  in
  let (module Batch : Engine.ENGINE) = engine "batch" in
  match Batch.run (Engine.ctx ~resume:cp rel sigma) with
  | Ok _ -> Alcotest.fail "batch accepted an opt-fd checkpoint"
  | Error e ->
    let msg = Dq_error.to_string e in
    Alcotest.(check bool)
      "refusal names the foreign kind" true
      (Helpers.contains msg "opt-fd-repair")

(* A delay plan must not change any engine's output — fault sites are
   pure interposition points. *)
let test_fault_plan_differential () =
  let rel, sigma = fd_fixture () in
  let plan =
    match Dq_fault.Fault.parse_plan "repair.pass@1:delay 1" with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse_plan: %s" e
  in
  List.iter
    (fun name ->
      let plain = Csv.save_string (repair_of name rel sigma) in
      Dq_fault.Fault.arm plan;
      let faulted =
        Fun.protect ~finally:Dq_fault.Fault.disarm (fun () ->
            Csv.save_string (repair_of name rel sigma))
      in
      Alcotest.(check string)
        (Printf.sprintf "%s output unchanged under a delay plan" name)
        plain faulted)
    all_names

let test_unknown_engine () =
  match Engine.find "bogus" with
  | Ok _ -> Alcotest.fail "found an engine named bogus"
  | Error (Dq_error.Unknown_engine { name; known }) ->
    Alcotest.(check string) "name echoed" "bogus" name;
    Alcotest.(check (list string)) "known list" (Engine.names ()) known
  | Error e ->
    Alcotest.failf "wrong error: %s" (Dq_error.to_string e)

let test_fragment_mismatch () =
  let sigma = Helpers.fig1_sigma () in
  match Engine.check_fragment (engine "opt-fd") Helpers.order_schema sigma with
  | Ok () -> Alcotest.fail "opt-fd accepted a constant-pattern Σ"
  | Error (Dq_error.Engine_unsupported { engine; reason }) ->
    Alcotest.(check string) "engine named" "opt-fd" engine;
    Alcotest.(check bool)
      "reason mentions constants" true
      (Helpers.contains reason "constant patterns")
  | Error e -> Alcotest.failf "wrong error: %s" (Dq_error.to_string e)

let test_alias_and_registry () =
  let (module V : Engine.ENGINE) = engine "v-inc" in
  Alcotest.(check string) "v-inc aliases inc" "inc" V.name;
  Alcotest.(check (list string))
    "registry order" all_names (Engine.names ())

let suite =
  [
    Alcotest.test_case "unknown engine is a typed error" `Quick
      test_unknown_engine;
    Alcotest.test_case "opt-fd rejects constant patterns up front" `Quick
      test_fragment_mismatch;
    Alcotest.test_case "v-inc alias and registry names" `Quick
      test_alias_and_registry;
    Alcotest.test_case "opt-fd checkpoint/resume is byte-identical" `Quick
      test_opt_fd_checkpoint_resume;
    Alcotest.test_case "batch refuses an opt-fd checkpoint" `Quick
      test_cross_engine_resume_refused;
    Alcotest.test_case "delay fault plans never change output" `Quick
      test_fault_plan_differential;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_all_engines_satisfy;
        prop_fd_fragment_differential;
        prop_opt_fd_cost_le_batch;
        prop_engines_jobs_invariant;
        prop_partition_invariant;
        prop_provenance_replays;
      ]
