open Dq_relation
open Dq_cfd
open Dq_core
open Helpers

let check_clean rel sigma =
  Alcotest.(check bool) "repair satisfies sigma" true (Violation.satisfies rel sigma)

(* The running example: t3 and t4 violate phi1 and phi2; the cheap repair
   (Example 3.1) sets their CT,ST to NYC,NY because those weights are low. *)
let test_fig1_repair () =
  let db = fig1_db () in
  let sigma = fig1_sigma () in
  Alcotest.(check bool) "dirty initially" false (Violation.satisfies db sigma);
  let repr, stats = Helpers.ok (Batch_repair.repair db sigma) in
  check_clean repr sigma;
  Alcotest.(check bool) "original untouched" false (Violation.satisfies db sigma);
  Alcotest.(check bool) "some cells changed" true (stats.Batch_repair.cells_changed > 0);
  let ct = Schema.position_exn order_schema "CT" in
  let st = Schema.position_exn order_schema "ST" in
  let t3 = Relation.find_exn repr 2 and t4 = Relation.find_exn repr 3 in
  Alcotest.check value "t3.CT" (Value.string "NYC") (Tuple.get t3 ct);
  Alcotest.check value "t3.ST" (Value.string "NY") (Tuple.get t3 st);
  Alcotest.check value "t4.CT" (Value.string "NYC") (Tuple.get t4 ct);
  Alcotest.check value "t4.ST" (Value.string "NY") (Tuple.get t4 st)

let test_clean_is_noop () =
  let db = fig1_db () in
  let sigma = fig1_sigma () in
  let repr, _ = Helpers.ok (Batch_repair.repair db sigma) in
  let repr2, stats2 = Helpers.ok (Batch_repair.repair repr sigma) in
  Alcotest.(check int) "no further changes" 0 stats2.Batch_repair.cells_changed;
  Alcotest.(check int) "dif is 0" 0 (Relation.dif repr repr2)

(* Example 4.1 / 5.1: inserting t5 makes phi1/phi2 interact cyclically; the
   FD-style RHS-only strategy would loop, BATCHREPAIR must terminate and
   produce a clean instance. *)
let test_cyclic_t5 () =
  let db = fig1_db () in
  let sigma = fig1_sigma () in
  let repr, _ = Helpers.ok (Batch_repair.repair db sigma) in
  ignore
    (Relation.insert repr
       (Array.map Value.of_string
          [| "a77"; "Mog"; "9.99"; "215"; "8983490"; "Oak"; "NYC"; "NY"; "10012" |]));
  Alcotest.(check bool) "t5 makes it dirty" false (Violation.satisfies repr sigma);
  let repr2, _ = Helpers.ok (Batch_repair.repair repr sigma) in
  check_clean repr2 sigma

let test_embedded_fd_baseline () =
  let db = fig1_db () in
  let sigma = fig1_sigma () in
  let fds = Cfd.number (Cfd.embedded_fds (Array.to_list sigma)) in
  (* Figure 1(a) satisfies the plain FDs, so the FD baseline changes nothing
     even though the data violates the CFDs. *)
  Alcotest.(check bool) "FDs hold" true (Violation.satisfies db fds);
  let repr, stats = Helpers.ok (Batch_repair.repair db fds) in
  check_clean repr fds;
  Alcotest.(check int) "no changes needed" 0 stats.Batch_repair.cells_changed

let test_fd_pair_violation () =
  let schema = Schema.make ~name:"r" [ "A"; "B" ] in
  let rel = Relation.create schema in
  let add a b = ignore (Relation.insert rel [| Value.string a; Value.string b |]) in
  add "x" "1";
  add "x" "2";
  add "y" "3";
  let sigma =
    Cfd.number (Cfd.normalize schema (Cfd.Tableau.fd ~name:"fd" ~lhs:[ "A" ] ~rhs:[ "B" ]))
  in
  let repr, _ = Helpers.ok (Batch_repair.repair rel sigma) in
  check_clean repr sigma;
  (* The two x-tuples must have been merged onto a common B value. *)
  let t0 = Relation.find_exn repr 0 and t1 = Relation.find_exn repr 1 in
  Alcotest.(check bool) "B values equal" true
    (Value.equal (Tuple.get t0 1) (Tuple.get t1 1));
  let t2 = Relation.find_exn repr 2 in
  Alcotest.check value "y untouched" (Value.string "3") (Tuple.get t2 1)

let test_constant_cfd_fix () =
  let schema = Schema.make ~name:"r" [ "A"; "B" ] in
  let rel = Relation.create schema in
  ignore (Relation.insert rel [| Value.string "k"; Value.string "bad" |]);
  let sigma =
    Cfd.number
      [
        Cfd.make schema ~name:"c"
          ~lhs:[ ("A", Pattern.const (Value.string "k")) ]
          ~rhs:("B", Pattern.const (Value.string "good"));
      ]
  in
  let repr, stats = Helpers.ok (Batch_repair.repair rel sigma) in
  check_clean repr sigma;
  let t = Relation.find_exn repr 0 in
  Alcotest.check value "B fixed to constant" (Value.string "good") (Tuple.get t 1);
  Alcotest.(check int) "one rhs fix" 1 stats.Batch_repair.rhs_fixes

(* Two constant CFDs that disagree on B for the same LHS pattern force an
   LHS change (case 1.2) — the RHS target cannot satisfy both. *)
let test_lhs_escalation () =
  let schema = Schema.make ~name:"r" [ "A"; "B"; "C" ] in
  let rel = Relation.create schema in
  ignore
    (Relation.insert rel
       [| Value.string "k"; Value.string "x"; Value.string "u" |]);
  let k = Pattern.const (Value.string "k") in
  let sigma =
    Cfd.number
      [
        Cfd.make schema ~name:"c1" ~lhs:[ ("A", k) ]
          ~rhs:("B", Pattern.const (Value.string "v1"));
        Cfd.make schema ~name:"c2" ~lhs:[ ("A", k) ]
          ~rhs:("B", Pattern.const (Value.string "v2"));
      ]
  in
  let repr, stats = Helpers.ok (Batch_repair.repair rel sigma) in
  check_clean repr sigma;
  Alcotest.(check bool) "escalated to the LHS" true
    (stats.Batch_repair.lhs_fixes >= 1);
  (* Resolving needed an uncertain value somewhere: A (or B) became null. *)
  let t = Relation.find_exn repr 0 in
  Alcotest.(check bool) "a null was introduced" true
    (Value.is_null (Tuple.get t 0) || Value.is_null (Tuple.get t 1))

let test_no_dependency_graph_variant () =
  let db = fig1_db () in
  let sigma = fig1_sigma () in
  let repr, _ = Helpers.ok (Batch_repair.repair ~use_dependency_graph:false db sigma) in
  check_clean repr sigma

(* DATAQUAL_PARANOID re-checks, after every resolution step, that each live
   pair conflict is queued, and logs an error for any that is not. *)
let test_paranoid_invariant () =
  Unix.putenv "DATAQUAL_PARANOID" "1";
  Fun.protect ~finally:(fun () -> Unix.putenv "DATAQUAL_PARANOID" "")
  @@ fun () ->
  let errors = Logs.err_count () in
  let repair rel sigma = check_clean (fst (Helpers.ok (Batch_repair.repair rel sigma))) sigma in
  repair (fig1_db ()) (fig1_sigma ());
  let ds =
    Dq_workload.Datagen.generate
      (Dq_workload.Datagen.default_params ~n_tuples:150 ~seed:5 ())
  in
  let noise =
    Dq_workload.Noise.inject
      (Dq_workload.Noise.default_params ~rate:0.1 ~seed:6 ())
      ds
  in
  repair noise.Dq_workload.Noise.dirty ds.Dq_workload.Datagen.sigma;
  Alcotest.(check int) "no invariant error logged" errors (Logs.err_count ())

(* Per-FD buckets on tableaux whose rows share embedded FDs (X listed in
   different orders, RHS inside X, nulls in X and A): the paranoid check
   stays silent, the repair satisfies Σ by the naive oracle, and neither
   the job count nor checkpointing changes the CSV or provenance. *)
let prop_fd_buckets =
  QCheck.Test.make
    ~name:"per-FD buckets: paranoid-silent, consistent, jobs 1 = 4 = checkpoint"
    ~count:200 Tableau_gen.instance (fun (rel, sigma) ->
      Unix.putenv "DATAQUAL_PARANOID" "1";
      Fun.protect ~finally:(fun () -> Unix.putenv "DATAQUAL_PARANOID" "")
      @@ fun () ->
      let errors = Logs.err_count () in
      let run ?checkpoint jobs =
        Dq_parallel.Pool.with_pool ~jobs @@ fun pool ->
        let (repaired, _), report =
          Helpers.ok2 (Batch_repair.repair ~pool ?checkpoint rel sigma)
        in
        ( repaired,
          ( Csv.save_string repaired,
            List.map
              (fun e ->
                Dq_obs.Json.to_string (Dq_obs.Provenance.entry_to_json e))
              report.Dq_obs.Report.provenance ) )
      in
      let repaired, out1 = run 1 in
      let _, out4 = run 4 in
      let path = Filename.temp_file "dataqual" ".ckpt" in
      let _, out_ck =
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () -> run ~checkpoint:{ Batch_repair.path; every = 1 } 1)
      in
      Logs.err_count () = errors
      && Relation.fold
           (fun ok t -> ok && Oracle.vio_tuple repaired sigma t = 0)
           true repaired
      && out1 = out4 && out1 = out_ck)

let suite =
  [
    Alcotest.test_case "fig1 repair" `Quick test_fig1_repair;
    Alcotest.test_case "repair is idempotent on clean data" `Quick test_clean_is_noop;
    Alcotest.test_case "cyclic t5 terminates" `Quick test_cyclic_t5;
    Alcotest.test_case "embedded FD baseline" `Quick test_embedded_fd_baseline;
    Alcotest.test_case "FD pair violation merged" `Quick test_fd_pair_violation;
    Alcotest.test_case "constant CFD fixed" `Quick test_constant_cfd_fix;
    Alcotest.test_case "LHS escalation" `Quick test_lhs_escalation;
    Alcotest.test_case "works without dependency graph" `Quick
      test_no_dependency_graph_variant;
    Alcotest.test_case "paranoid invariant check stays silent" `Quick
      test_paranoid_invariant;
    QCheck_alcotest.to_alcotest prop_fd_buckets;
  ]
