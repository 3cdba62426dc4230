open Dq_relation
open Dq_cfd
open Helpers

let total counts = Hashtbl.fold (fun _ n acc -> acc + n) counts 0

let test_fig1_detection () =
  let db = fig1_db () in
  let sigma = fig1_sigma () in
  Alcotest.(check bool) "dirty" false (Violation.satisfies db sigma);
  (* t3 (tid 2) and t4 (tid 3) each violate phi1 and phi2. *)
  Alcotest.(check (list int)) "violating tids" [ 2; 3 ]
    (Violation.violating_tids db sigma)

let test_vio_counts_match_paper () =
  let db = fig1_db () in
  let sigma = fig1_sigma () in
  let counts = Violation.vio_counts db sigma in
  (* t3: violates phi1 rows for CT and ST (tp (212,_||_,NYC,NY) gives 2
     clauses) and phi2 rows for CT and ST: 4 single-tuple violations. *)
  Alcotest.(check (option int)) "vio(t3)" (Some 4) (Hashtbl.find_opt counts 2);
  Alcotest.(check (option int)) "vio(t4)" (Some 4) (Hashtbl.find_opt counts 3);
  Alcotest.(check (option int)) "t1 clean" None (Hashtbl.find_opt counts 0);
  Alcotest.(check int) "total" 8 (total counts)

let test_vio_tuple_agrees_with_counts () =
  let db = fig1_db () in
  let sigma = fig1_sigma () in
  let counts = Violation.vio_counts db sigma in
  Relation.iter
    (fun t ->
      let expected =
        match Hashtbl.find_opt counts (Tuple.tid t) with Some n -> n | None -> 0
      in
      Alcotest.(check int)
        (Printf.sprintf "vio_tuple tid %d" (Tuple.tid t))
        expected
        (Oracle.vio_tuple db sigma t))
    db

let test_single_tuple_can_violate_cfd () =
  (* Example 2.2: unlike FDs, one tuple alone can violate a CFD. *)
  let schema = Schema.make ~name:"r" [ "A"; "B" ] in
  let rel = Relation.create schema in
  ignore (Relation.insert rel [| Value.string "k"; Value.string "wrong" |]);
  let sigma =
    Cfd.number
      [
        Cfd.make schema ~name:"c"
          ~lhs:[ ("A", Pattern.const (Value.string "k")) ]
          ~rhs:("B", Pattern.const (Value.string "right"));
      ]
  in
  Alcotest.(check int) "one violation from one tuple" 1
    (total (Violation.vio_counts rel sigma))

let test_pair_violation_counting () =
  let schema = Schema.make ~name:"r" [ "A"; "B" ] in
  let rel = Relation.create schema in
  let add a b = ignore (Relation.insert rel [| Value.string a; Value.string b |]) in
  (* group x: values 1,1,2 -> the two 1s each conflict with the 2 (1 each),
     the 2 conflicts with both 1s (2). *)
  add "x" "1";
  add "x" "1";
  add "x" "2";
  add "y" "9";
  let sigma =
    Cfd.number (Cfd.normalize schema (Cfd.Tableau.fd ~name:"fd" ~lhs:[ "A" ] ~rhs:[ "B" ]))
  in
  let counts = Violation.vio_counts rel sigma in
  Alcotest.(check (option int)) "first 1" (Some 1) (Hashtbl.find_opt counts 0);
  Alcotest.(check (option int)) "second 1" (Some 1) (Hashtbl.find_opt counts 1);
  Alcotest.(check (option int)) "the 2" (Some 2) (Hashtbl.find_opt counts 2);
  Alcotest.(check int) "total 4" 4 (total counts)

let test_null_resolves_everything () =
  let schema = Schema.make ~name:"r" [ "A"; "B" ] in
  let rel = Relation.create schema in
  let t1 = Relation.insert rel [| Value.string "x"; Value.string "1" |] in
  let t2 = Relation.insert rel [| Value.string "x"; Value.string "2" |] in
  let sigma =
    Cfd.number (Cfd.normalize schema (Cfd.Tableau.fd ~name:"fd" ~lhs:[ "A" ] ~rhs:[ "B" ]))
  in
  Alcotest.(check bool) "conflict" false (Violation.satisfies rel sigma);
  (* nulling one RHS resolves the pair *)
  Relation.set_value rel t2 1 Value.null;
  Alcotest.(check bool) "null RHS resolves" true (Violation.satisfies rel sigma);
  (* restore, then null an LHS instead: pattern match fails, also resolves *)
  Relation.set_value rel t2 1 (Value.string "2");
  Relation.set_value rel t1 0 Value.null;
  Alcotest.(check bool) "null LHS resolves" true (Violation.satisfies rel sigma)

let test_find_all_covers_all_violators () =
  let db = fig1_db () in
  let sigma = fig1_sigma () in
  let violations = Violation.find_all db sigma in
  let mentioned =
    List.concat_map Violation.tids violations |> List.sort_uniq Int.compare
  in
  Alcotest.(check (list int)) "all violating tids mentioned" [ 2; 3 ] mentioned;
  List.iter
    (fun v ->
      match v with
      | Violation.Single { cfd; _ } ->
        Alcotest.(check bool) "singles come from constant clauses" true
          (Cfd.is_constant cfd)
      | Violation.Pair { cfd; _ } ->
        Alcotest.(check bool) "pairs come from wildcard clauses" false
          (Cfd.is_constant cfd))
    violations

let test_pair_conflict_symmetric () =
  (* Every reported pair conflicts in both directions. *)
  let schema = Schema.make ~name:"r" [ "A"; "B" ] in
  let rel = Relation.create schema in
  List.iter
    (fun (a, b) -> ignore (Relation.insert rel [| Value.string a; Value.string b |]))
    [ ("x", "1"); ("x", "2"); ("x", "1"); ("y", "3") ];
  let sigma =
    Cfd.number (Cfd.normalize schema (Cfd.Tableau.fd ~name:"fd" ~lhs:[ "A" ] ~rhs:[ "B" ]))
  in
  let pairs = Violation.find_all rel sigma in
  Alcotest.(check int) "one pair per involved tuple" 3 (List.length pairs);
  List.iter
    (function
      | Violation.Pair { tid1; tid2; cfd } ->
        let t1 = Relation.find_exn rel tid1 and t2 = Relation.find_exn rel tid2 in
        Alcotest.(check bool) "conflict" true (Oracle.pair_conflict cfd t1 t2);
        Alcotest.(check bool) "symmetric" true (Oracle.pair_conflict cfd t2 t1)
      | Violation.Single _ -> Alcotest.fail "no constant clause")
    pairs

(* ---- differential: the compiled clause index against the naive oracle -- *)

(* find_all by definition: singles per tuple in relation order, then per
   wildcard clause in Σ order each conflicting tuple against the first
   tuple in relation order it conflicts with. *)
let naive_find_all rel sigma =
  let tuples = Array.to_list (Relation.tuples rel) in
  let singles =
    List.concat_map
      (fun t ->
        Array.to_list sigma
        |> List.filter (fun cfd -> Violation.violates_constant cfd t)
        |> List.map (fun cfd -> (Tuple.tid t, Cfd.id cfd)))
      tuples
  in
  let pairs =
    Array.to_list sigma
    |> List.concat_map (fun cfd ->
           List.filter_map
             (fun t ->
               List.find_opt (Oracle.pair_conflict cfd t) tuples
               |> Option.map (fun w -> (Cfd.id cfd, Tuple.tid t, Tuple.tid w)))
             tuples)
  in
  (singles, pairs)

(* The oracle's view of an Lhs_index check: the clauses whose expected
   RHS value the tuple contradicts. *)
let oracle_lhs_vio rel sigma t =
  Array.fold_left
    (fun n cfd ->
      match Oracle.expected_rhs rel cfd t with
      | Some e ->
        let v = Tuple.get t (Cfd.rhs cfd) in
        if (not (Value.is_null v)) && not (Value.equal v e) then n + 1 else n
      | None -> n)
    0 sigma

let agrees_with_oracle pool rel sigma =
  let tuples = Array.to_list (Relation.tuples rel) in
  let vio t = Oracle.vio_tuple rel sigma t in
  let counts = Violation.vio_counts ~pool rel sigma in
  let counts_ok =
    List.for_all
      (fun t ->
        Option.value ~default:0 (Hashtbl.find_opt counts (Tuple.tid t)) = vio t)
      tuples
  in
  let found = Violation.find_all ~pool rel sigma in
  let singles =
    List.filter_map
      (function
        | Violation.Single { tid; cfd } -> Some (tid, Cfd.id cfd)
        | Pair _ -> None)
      found
  and pairs =
    List.filter_map
      (function
        | Violation.Pair { tid1; tid2; cfd } -> Some (Cfd.id cfd, tid1, tid2)
        | Single _ -> None)
      found
  in
  let naive_singles, naive_pairs = naive_find_all rel sigma in
  let find_all_ok =
    (* singles first, in relation order; then pairs exactly as defined *)
    List.map Violation.tids found
    = List.map (fun (tid, _) -> [ tid ]) singles
      @ List.map (fun (_, t1, t2) -> [ t1; t2 ]) pairs
    && List.map fst singles = List.map fst naive_singles
    && List.sort compare singles = naive_singles
    && pairs = naive_pairs
  in
  let idx = Lhs_index.build sigma rel in
  let lhs_index_ok =
    List.for_all
      (fun t ->
        Array.for_all
          (fun cfd ->
            Option.equal Value.equal
              (Lhs_index.expected_rhs idx cfd t)
              (Oracle.expected_rhs rel cfd t))
          sigma
        && Lhs_index.vio idx t = oracle_lhs_vio rel sigma t)
      tuples
  in
  counts_ok
  && Violation.satisfies ~pool rel sigma = List.for_all (fun t -> vio t = 0) tuples
  && find_all_ok && lhs_index_ok

let prop_differential =
  QCheck.Test.make ~name:"compiled index = naive oracle (jobs 1 and 4)"
    ~count:200 Tableau_gen.instance (fun (rel, sigma) ->
      List.for_all
        (fun jobs ->
          Dq_parallel.Pool.with_pool ~jobs (fun pool ->
              agrees_with_oracle pool rel sigma))
        [ 1; 4 ])

let suite =
  [
    Alcotest.test_case "fig1 detection" `Quick test_fig1_detection;
    Alcotest.test_case "vio counts" `Quick test_vio_counts_match_paper;
    Alcotest.test_case "vio_tuple agrees with vio_counts" `Quick
      test_vio_tuple_agrees_with_counts;
    Alcotest.test_case "single tuple violates CFD" `Quick
      test_single_tuple_can_violate_cfd;
    Alcotest.test_case "pair violation counting" `Quick test_pair_violation_counting;
    Alcotest.test_case "null resolves violations" `Quick test_null_resolves_everything;
    Alcotest.test_case "find_all covers violators" `Quick
      test_find_all_covers_all_violators;
    Alcotest.test_case "pair_conflict symmetric" `Quick test_pair_conflict_symmetric;
    QCheck_alcotest.to_alcotest prop_differential;
  ]
