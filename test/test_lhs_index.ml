open Dq_relation
open Dq_cfd
open Dq_core
open Helpers

let clean_db_and_sigma () =
  let sigma = fig1_sigma () in
  let repair, _ = Helpers.ok (Batch_repair.repair (fig1_db ()) sigma) in
  (repair, sigma)

let find_clause sigma ~name ~rhs_attr =
  let rhs = Schema.position_exn order_schema rhs_attr in
  Array.to_list sigma
  |> List.find (fun c -> String.equal (Cfd.name c) name && Cfd.rhs c = rhs)

let fresh values = Tuple.create ~tid:999 (Array.map Value.of_string values)

let test_expected_rhs_constant_clause () =
  let db, sigma = clean_db_and_sigma () in
  let idx = Lhs_index.build sigma db in
  (* phi2's constant row (10012 || NYC): a tuple with zip 10012 is expected
     to have CT = NYC, regardless of what the relation holds. *)
  let phi2_ct =
    Array.to_list sigma
    |> List.find (fun c ->
           String.equal (Cfd.name c) "phi2"
           && Cfd.rhs c = Schema.position_exn order_schema "CT"
           && Cfd.is_constant c
           && Pattern.matches (Value.int 10012) (Cfd.lhs_patterns c).(0))
  in
  let t =
    fresh [| "a1"; "X"; "1.0"; "212"; "1234567"; "Elm"; "PHI"; "PA"; "10012" |]
  in
  Alcotest.(check (option value)) "expected NYC" (Some (Value.string "NYC"))
    (Lhs_index.expected_rhs idx phi2_ct t);
  Alcotest.(check bool) "violates" true (Lhs_index.violates idx phi2_ct t)

let test_expected_rhs_variable_clause () =
  let db, sigma = clean_db_and_sigma () in
  let idx = Lhs_index.build sigma db in
  (* phi3's wildcard row: id a23 determines name "H. Porter" from the data. *)
  let phi3_name =
    Array.to_list sigma
    |> List.find (fun c ->
           String.equal (Cfd.name c) "phi3"
           && Cfd.rhs c = Schema.position_exn order_schema "name")
  in
  let t =
    fresh [| "a23"; "Wrong"; "17.99"; "999"; "0"; "Elm"; "LA"; "CA"; "90001" |]
  in
  Alcotest.(check (option value)) "indexed name"
    (Some (Value.string "H. Porter"))
    (Lhs_index.expected_rhs idx phi3_name t);
  Alcotest.(check bool) "conflicting name violates" true
    (Lhs_index.violates idx phi3_name t);
  (* unknown key: no constraint *)
  let unknown =
    fresh [| "zz"; "Wrong"; "1.0"; "999"; "0"; "Elm"; "LA"; "CA"; "90001" |]
  in
  Alcotest.(check (option value)) "unknown key free" None
    (Lhs_index.expected_rhs idx phi3_name unknown)

let test_vio_counts_clauses () =
  let db, sigma = clean_db_and_sigma () in
  let idx = Lhs_index.build sigma db in
  (* A tuple cloning t1 but claiming NYC/NY: conflicts with phi1 (STR via
     index? no - STR matches), CT, ST and phi4 (zip). *)
  let t =
    fresh
      [| "a23"; "H. Porter"; "17.99"; "215"; "8983490"; "Walnut"; "NYC"; "NY"; "19014" |]
  in
  Alcotest.(check bool) "some violations" true (Lhs_index.vio idx t > 0);
  let clean_clone =
    fresh
      [| "a23"; "H. Porter"; "17.99"; "215"; "8983490"; "Walnut"; "PHI"; "PA"; "19014" |]
  in
  Alcotest.(check int) "clone of clean tuple violates nothing" 0
    (Lhs_index.vio idx clean_clone)

let test_nulls_resolve () =
  let db, sigma = clean_db_and_sigma () in
  let idx = Lhs_index.build sigma db in
  let t =
    fresh [| "a23"; ""; ""; ""; ""; ""; ""; ""; "" |]
  in
  (* null RHS and null LHS both resolve: only id is set, and the phi3
     clauses see null names/prices, which violate nothing. *)
  Alcotest.(check int) "nulls violate nothing" 0 (Lhs_index.vio idx t)

let test_add_tuple_updates_index () =
  let db, sigma = clean_db_and_sigma () in
  let idx = Lhs_index.build sigma db in
  let phi3_name = find_clause sigma ~name:"phi3" ~rhs_attr:"name" in
  let newcomer =
    fresh [| "a99"; "Tea Pot"; "3.50"; "215"; "1111111"; "Oak"; "PHI"; "PA"; "19014" |]
  in
  Alcotest.(check (option value)) "a99 unknown before" None
    (Lhs_index.expected_rhs idx phi3_name newcomer);
  Lhs_index.add_tuple idx newcomer;
  let probe =
    fresh [| "a99"; "Other"; "9.99"; "1"; "2"; "3"; "4"; "5"; "6" |]
  in
  Alcotest.(check (option value)) "a99 bound after add"
    (Some (Value.string "Tea Pot"))
    (Lhs_index.expected_rhs idx phi3_name probe);
  Alcotest.(check bool) "conflict detected" true
    (Lhs_index.violates idx phi3_name probe)

let suite =
  [
    Alcotest.test_case "constant clause lookup" `Quick test_expected_rhs_constant_clause;
    Alcotest.test_case "variable clause lookup" `Quick test_expected_rhs_variable_clause;
    Alcotest.test_case "vio counting" `Quick test_vio_counts_clauses;
    Alcotest.test_case "nulls resolve" `Quick test_nulls_resolve;
    Alcotest.test_case "add_tuple updates" `Quick test_add_tuple_updates_index;
  ]
