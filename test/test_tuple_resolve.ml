open Dq_relation
open Dq_cfd
open Dq_core
open Helpers

let clean_env () =
  let sigma = fig1_sigma () in
  let repair, _ = Helpers.ok (Batch_repair.repair (fig1_db ()) sigma) in
  (repair, sigma)

let fresh values = Tuple.create ~tid:777 (Array.map Value.of_string values)

let test_clean_tuple_untouched () =
  let repr, sigma = clean_env () in
  let env = Tuple_resolve.make_env repr sigma in
  let t =
    fresh [| "a50"; "Clock"; "9.99"; "215"; "8983490"; "Walnut"; "PHI"; "PA"; "19014" |]
  in
  let rt = Tuple_resolve.resolve env t in
  Alcotest.(check bool) "no change" true (Tuple.equal_values t rt);
  Alcotest.(check int) "same tid" 777 (Tuple.tid rt)

let test_resolved_tuple_is_insertable () =
  let repr, sigma = clean_env () in
  let env = Tuple_resolve.make_env repr sigma in
  let t =
    (* conflicting city for a known zip AND a known (AC, PN) *)
    fresh [| "a50"; "Clock"; "9.99"; "215"; "8983490"; "Walnut"; "LA"; "CA"; "19014" |]
  in
  Alcotest.(check bool) "violates before" true (Tuple_resolve.vio_against env t > 0);
  let rt = Tuple_resolve.resolve env t in
  Alcotest.(check int) "violates nothing after" 0 (Tuple_resolve.vio_against env rt);
  Relation.add repr rt;
  Alcotest.(check bool) "relation stays clean" true (Violation.satisfies repr sigma)

let test_weights_steer_the_choice () =
  let repr, sigma = clean_env () in
  let env = Tuple_resolve.make_env repr sigma in
  (* Same contradiction, but trusted city vs untrusted zip: the resolver
     should prefer touching the low-weight attribute. *)
  let values =
    Array.map Value.of_string
      [| "a50"; "Clock"; "9.99"; "999"; "0000000"; "Canel"; "NYC"; "NY"; "19014" |]
  in
  let weights = [| 1.; 1.; 1.; 1.; 1.; 1.; 0.9; 0.9; 0.05 |] in
  let t = Tuple.create ~tid:778 ~weights values in
  let rt = Tuple_resolve.resolve env t in
  Alcotest.(check int) "clean after" 0 (Tuple_resolve.vio_against env rt);
  Alcotest.check value "trusted city kept" (Value.string "NYC")
    (Tuple.get rt (Schema.position_exn order_schema "CT"));
  Alcotest.(check bool) "zip changed instead" false
    (Value.equal (Tuple.get rt (Schema.position_exn order_schema "zip"))
       (Value.int 19014))

let test_k1_vs_k2 () =
  let repr, sigma = clean_env () in
  let t =
    fresh [| "a50"; "Clock"; "9.99"; "215"; "8983490"; "Oak"; "NYC"; "NY"; "10012" |]
  in
  List.iter
    (fun k ->
      let env = Tuple_resolve.make_env ~k repr sigma in
      let rt = Tuple_resolve.resolve env t in
      Alcotest.(check int)
        (Printf.sprintf "k=%d yields consistent tuple" k)
        0
        (Tuple_resolve.vio_against env rt))
    [ 1; 2; 3 ]

let test_example_5_1_needs_null_or_zip () =
  (* Example 5.1: with the two CT,ST attributes free there is no
     active-domain assignment satisfying both phi1 and phi2 for t5; the
     resolver must reach for null or also touch zip (k=3). *)
  let repr, sigma = clean_env () in
  let env = Tuple_resolve.make_env ~k:2 repr sigma in
  let t5 =
    fresh [| "a55"; "Mug"; "4.99"; "215"; "8983490"; "Oak"; "NYC"; "NY"; "10012" |]
  in
  let rt = Tuple_resolve.resolve env t5 in
  Alcotest.(check int) "consistent" 0 (Tuple_resolve.vio_against env rt);
  let changed = Tuple.diff_positions t5 rt in
  Alcotest.(check bool) "some attribute had to give" true (changed <> [])

let test_register_affects_later_tuples () =
  let repr, sigma = clean_env () in
  let env = Tuple_resolve.make_env repr sigma in
  (* Insert a tuple binding a fresh id to a name... *)
  let first =
    fresh [| "a77"; "Vase"; "12.00"; "215"; "8983490"; "Walnut"; "PHI"; "PA"; "19014" |]
  in
  let r1 = Tuple_resolve.resolve env first in
  Relation.add repr r1;
  Tuple_resolve.register env r1;
  (* ... a second tuple with the same id but another name now conflicts
     and must be reconciled against the first. *)
  let second =
    Tuple.create ~tid:778
      (Array.map Value.of_string
         [| "a77"; "Base"; "12.00"; "215"; "8983490"; "Walnut"; "PHI"; "PA"; "19014" |])
  in
  Alcotest.(check bool) "second violates phi3" true
    (Tuple_resolve.vio_against env second > 0);
  let r2 = Tuple_resolve.resolve env second in
  Alcotest.(check int) "reconciled" 0 (Tuple_resolve.vio_against env r2);
  Alcotest.check value "takes the registered name" (Value.string "Vase")
    (Tuple.get r2 (Schema.position_exn order_schema "name"))

let test_invalid_k () =
  let repr, sigma = clean_env () in
  Alcotest.check_raises "k=0 rejected"
    (Invalid_argument "Tuple_resolve.make_env: k must be >= 1") (fun () ->
      ignore (Tuple_resolve.make_env ~k:0 repr sigma))

(* A long-lived env kept current by [register] must resolve every tuple of
   a stream exactly as a fresh env built over the same relation would.
   The long-lived side runs first and records its repairs; the fresh envs
   (one per stream position, over the base plus the recorded prefix) are
   independent of each other and run as pool tasks, at jobs 1 and 4. *)
let prop_long_lived_env_matches_fresh =
  let cell =
    QCheck.Gen.(
      frequency
        [
          (4, Helpers.Gen.value_gen);
          (2, map Value.string (string_size ~gen:(char_range 'u' 'w') (1 -- 3)));
          (1, map Value.int (0 -- 5));
          (1, return Value.null);
        ])
  in
  let row = QCheck.Gen.(array_size (return (List.length Helpers.Gen.attrs)) cell) in
  QCheck.Test.make ~name:"long-lived env resolves like a fresh one, at jobs 1 and 4"
    ~count:100
    (QCheck.make
       QCheck.Gen.(
         triple (list_size (0 -- 12) row) (list_size (1 -- 12) row)
           Helpers.Gen.sigma_gen))
    (fun (base_rows, stream_rows, sigma) ->
      let base () =
        let rel = Relation.create Helpers.Gen.schema in
        List.iter (fun values -> ignore (Relation.insert rel values)) base_rows;
        rel
      in
      let stream =
        Array.of_list
          (List.mapi (fun i values -> Tuple.create ~tid:(1000 + i) values) stream_rows)
      in
      let repr = base () in
      let env = Tuple_resolve.make_env repr sigma in
      let long_lived =
        Array.map
          (fun t ->
            let rt = Tuple_resolve.resolve env t in
            Relation.add repr rt;
            Tuple_resolve.register env rt;
            rt)
          stream
      in
      let fresh i =
        let rel = base () in
        for j = 0 to i - 1 do
          Relation.add rel (Tuple.copy long_lived.(j))
        done;
        Tuple_resolve.resolve (Tuple_resolve.make_env rel sigma) stream.(i)
      in
      List.for_all
        (fun jobs ->
          let fresh_side =
            Dq_parallel.Pool.with_pool ~jobs (fun pool ->
                Dq_parallel.Pool.map_array (Some pool) fresh
                  (Array.init (Array.length stream) Fun.id))
          in
          Array.for_all2 Tuple.equal_values long_lived fresh_side)
        [ 1; 4 ])

let suite =
  [
    Alcotest.test_case "clean tuple untouched" `Quick test_clean_tuple_untouched;
    Alcotest.test_case "resolved tuple insertable" `Quick
      test_resolved_tuple_is_insertable;
    Alcotest.test_case "weights steer the choice" `Quick test_weights_steer_the_choice;
    Alcotest.test_case "k = 1, 2, 3 all consistent" `Quick test_k1_vs_k2;
    Alcotest.test_case "example 5.1" `Quick test_example_5_1_needs_null_or_zip;
    Alcotest.test_case "register affects later tuples" `Quick
      test_register_affects_later_tuples;
    Alcotest.test_case "invalid k" `Quick test_invalid_k;
    QCheck_alcotest.to_alcotest prop_long_lived_env_matches_fresh;
  ]
