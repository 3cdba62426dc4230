(* The Dq_parallel pool and the byte-identical-at-any-job-count contract.

   Unit tests pin the pool's own semantics (chunking, exceptions,
   determinism of the merge order); qcheck properties then check that the
   parallel detection functions agree exactly with their sequential runs
   on random instances, for job counts including odd ones (7) whose
   uneven chunk boundaries would expose any merge-order dependence; and a
   seeded regression pins whole-repair and discovery determinism across
   job counts, including oversubscription (far more jobs than tuples) and
   the degenerate empty/single-tuple relations. *)

open Dq_relation
open Dq_cfd
open Dq_core
open Dq_workload
module Pool = Dq_parallel.Pool

let job_counts = [ 1; 2; 4; 7 ]

(* ---- pool unit tests -------------------------------------------------- *)

(* The (lo, hi) ranges [map_chunks] hands out, in chunk-index order. *)
let chunk_ranges pool ~chunks n =
  Pool.map_chunks ~chunks (Some pool) ~n (fun lo hi -> (lo, hi))

let test_ranges () =
  Pool.with_pool ~jobs:2 @@ fun pool ->
  List.iter
    (fun (chunks, n) ->
      let rs = chunk_ranges pool ~chunks n in
      (* Contiguous cover of [0, n) in order. *)
      let expected_lo = ref 0 in
      List.iter
        (fun (lo, hi) ->
          Alcotest.(check int) "contiguous" !expected_lo lo;
          Alcotest.(check bool) "non-empty" true (hi > lo);
          expected_lo := hi)
        rs;
      Alcotest.(check int) "covers n" n !expected_lo;
      Alcotest.(check bool)
        "at most [chunks] ranges" true
        (List.length rs <= max chunks 1);
      (* Balanced: sizes differ by at most one. *)
      let sizes = List.map (fun (lo, hi) -> hi - lo) rs in
      match sizes with
      | [] -> Alcotest.(check int) "empty only when n = 0" 0 n
      | s :: rest ->
        let mn = List.fold_left min s rest and mx = List.fold_left max s rest in
        Alcotest.(check bool) "balanced" true (mx - mn <= 1))
    [ (1, 10); (3, 10); (4, 4); (7, 3); (16, 5); (2, 0); (5, 1) ]

let test_jobs_validation () =
  Alcotest.check_raises "jobs = 0 rejected"
    (Invalid_argument "Pool.create: jobs must be >= 1 (got 0)") (fun () ->
      ignore (Pool.create ~jobs:0));
  Alcotest.check_raises "negative jobs rejected"
    (Invalid_argument "Pool.create: jobs must be >= 1 (got -3)") (fun () ->
      ignore (Pool.create ~jobs:(-3)))

let test_for_chunks () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs @@ fun pool ->
      let n = 1_000 in
      let hits = Array.make n 0 in
      Pool.for_chunks (Some pool) ~n (fun lo hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Alcotest.(check bool)
        (Printf.sprintf "every index visited exactly once (jobs=%d)" jobs)
        true
        (Array.for_all (fun h -> h = 1) hits))
    job_counts

let test_map_chunks_order () =
  (* Chunk results come back in chunk-index order at any job count, never
     in completion order: uneven per-chunk work must not reorder them. *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs @@ fun pool ->
      let n = 103 in
      let seen =
        Pool.map_chunks ~chunks:7 (Some pool) ~n (fun lo hi ->
            if lo = 0 then Unix.sleepf 0.01;
            (lo, hi))
      in
      let expected =
        if jobs = 1 then [ (0, n) ]
        else List.init 7 (fun c -> (c * n / 7, (c + 1) * n / 7))
      in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "chunk-index order (jobs=%d)" jobs)
        expected seen)
    job_counts

let test_run_reraises () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  Alcotest.check_raises "task exception reaches the caller" Exit (fun () ->
      Pool.run pool
        (Array.init 8 (fun i -> fun () -> if i = 5 then raise Exit)));
  (* The pool survives a failed batch. *)
  let total =
    Pool.map_chunks ~chunks:4 (Some pool) ~n:100 (fun lo hi ->
        let s = ref 0 in
        for i = lo to hi - 1 do
          s := !s + i
        done;
        !s)
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "pool usable after exception" 4950 total

let test_shutdown_idempotent () =
  let pool = Pool.create ~jobs:3 in
  Pool.shutdown pool;
  Pool.shutdown pool

(* ---- qcheck: parallel detection = sequential detection ---------------- *)

(* Job-count-independent projection of a violation list; [find_all]'s
   order is canonical, so the projected lists must be equal {e as lists}. *)
let violations_key vs =
  List.map (fun v -> (Cfd.id (Violation.cfd_of v), Violation.tids v)) vs

let counts_key counts =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])

let equivalence_prop name check =
  QCheck.Test.make ~name ~count:60 Helpers.Gen.instance (fun (rel, sigma) ->
      List.for_all
        (fun jobs -> Pool.with_pool ~jobs (fun pool -> check pool rel sigma))
        job_counts)

let prop_find_all =
  equivalence_prop "find_all: parallel = sequential, canonical order"
    (fun pool rel sigma ->
      violations_key (Violation.find_all ~pool rel sigma)
      = violations_key (Violation.find_all rel sigma))

let prop_vio_counts =
  equivalence_prop "vio_counts: parallel = sequential" (fun pool rel sigma ->
      counts_key (Violation.vio_counts ~pool rel sigma)
      = counts_key (Violation.vio_counts rel sigma))

let prop_satisfies =
  equivalence_prop "satisfies: parallel = sequential" (fun pool rel sigma ->
      Violation.satisfies ~pool rel sigma = Violation.satisfies rel sigma)

(* ---- seeded regression: whole-pipeline determinism --------------------- *)

(* A small dirty instance from the synthetic workload generator. *)
let dirty_fixture n =
  let ds = Datagen.generate (Datagen.default_params ~n_tuples:n ~seed:11 ()) in
  let noise = Noise.inject (Noise.default_params ~rate:0.08 ~seed:12 ()) ds in
  (noise.Noise.dirty, ds)

(* Everything observable about a batch repair except wall-clock. *)
let batch_key (repair, (stats : Batch_repair.stats)) =
  ( Csv.save_string repair,
    stats.Batch_repair.steps,
    stats.Batch_repair.merges,
    stats.Batch_repair.rhs_fixes,
    stats.Batch_repair.lhs_fixes,
    stats.Batch_repair.nulls_introduced,
    stats.Batch_repair.cells_changed )

let inc_key (repair, (stats : Inc_repair.stats)) =
  ( Csv.save_string repair,
    stats.Inc_repair.tuples_processed,
    stats.Inc_repair.tuples_changed,
    stats.Inc_repair.cells_changed,
    stats.Inc_repair.nulls_introduced )

let check_all_jobs name expected f =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs @@ fun pool ->
      Alcotest.(check bool)
        (Printf.sprintf "%s identical at jobs=%d" name jobs)
        true
        (f pool = expected))
    job_counts

let test_repair_determinism () =
  let rel, ds = dirty_fixture 300 in
  let sigma = ds.Datagen.sigma in
  let batch = batch_key (Helpers.ok (Batch_repair.repair rel sigma)) in
  check_all_jobs "Batch_repair.repair" batch (fun pool ->
      batch_key (Helpers.ok (Batch_repair.repair ~pool rel sigma)));
  let inc = inc_key (Helpers.ok (Inc_repair.repair_dirty rel sigma)) in
  check_all_jobs "Inc_repair.repair_dirty" inc (fun pool ->
      inc_key (Helpers.ok (Inc_repair.repair_dirty ~pool rel sigma)))

let test_discovery_determinism () =
  let _, ds = dirty_fixture 400 in
  let clean = ds.Datagen.dopt in
  let mined rel pool =
    let d = Discovery.discover ?pool rel in
    ( Cfd_parser.to_string d.Discovery.tableaus,
      d.Discovery.n_variable,
      d.Discovery.n_constant )
  in
  let expected = mined clean None in
  check_all_jobs "Discovery.discover" expected (fun pool ->
      mined clean (Some pool))

(* ---- degenerate shapes ------------------------------------------------- *)

let test_oversubscription () =
  (* Far more jobs than tuples: chunks clamp to the tuple count. *)
  let rel = Helpers.fig1_db () in
  let sigma = Helpers.fig1_sigma () in
  let expected = violations_key (Violation.find_all rel sigma) in
  Pool.with_pool ~jobs:16 @@ fun pool ->
  Alcotest.(check bool)
    "find_all with jobs >> tuples" true
    (violations_key (Violation.find_all ~pool rel sigma) = expected);
  Alcotest.(check bool)
    "vio_counts with jobs >> tuples" true
    (counts_key (Violation.vio_counts ~pool rel sigma)
    = counts_key (Violation.vio_counts rel sigma));
  let repair, _ = Helpers.ok (Batch_repair.repair rel sigma) in
  let repair', _ = Helpers.ok (Batch_repair.repair ~pool rel sigma) in
  Alcotest.(check int) "repair with jobs >> tuples" 0
    (Relation.dif repair repair')

let test_empty_relation () =
  let rel = Relation.create Helpers.order_schema in
  let sigma = Helpers.fig1_sigma () in
  Pool.with_pool ~jobs:4 @@ fun pool ->
  Alcotest.(check int)
    "no violations in the empty relation" 0
    (List.length (Violation.find_all ~pool rel sigma));
  Alcotest.(check int) "vio(empty) = 0" 0
    (Hashtbl.length (Violation.vio_counts ~pool rel sigma));
  Alcotest.(check bool)
    "empty relation satisfies" true
    (Violation.satisfies ~pool rel sigma)

let test_single_tuple () =
  let rel = Relation.create Helpers.order_schema in
  let values, weights = List.hd Helpers.fig1_rows in
  ignore (Relation.insert ~weights rel values);
  let sigma = Helpers.fig1_sigma () in
  let expected = violations_key (Violation.find_all rel sigma) in
  Pool.with_pool ~jobs:7 @@ fun pool ->
  Alcotest.(check bool)
    "single tuple, 7 jobs" true
    (violations_key (Violation.find_all ~pool rel sigma) = expected)

let suite =
  [
    Alcotest.test_case "ranges partition correctly" `Quick test_ranges;
    Alcotest.test_case "job count validation" `Quick test_jobs_validation;
    Alcotest.test_case "for_chunks covers every index" `Quick test_for_chunks;
    Alcotest.test_case "map_chunks returns chunk-index order" `Quick
      test_map_chunks_order;
    Alcotest.test_case "run re-raises task exceptions" `Quick test_run_reraises;
    Alcotest.test_case "shutdown is idempotent" `Quick test_shutdown_idempotent;
    QCheck_alcotest.to_alcotest prop_find_all;
    QCheck_alcotest.to_alcotest prop_vio_counts;
    QCheck_alcotest.to_alcotest prop_satisfies;
    Alcotest.test_case "repairs identical at any job count" `Quick
      test_repair_determinism;
    Alcotest.test_case "discovery identical at any job count" `Quick
      test_discovery_determinism;
    Alcotest.test_case "jobs >> tuples" `Quick test_oversubscription;
    Alcotest.test_case "empty relation" `Quick test_empty_relation;
    Alcotest.test_case "single tuple" `Quick test_single_tuple;
  ]
