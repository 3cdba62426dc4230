open Dq_relation
open Dq_core

let vs l = List.map Value.of_string l

let test_empty () =
  let t = Cluster_index.build [] in
  Alcotest.(check int) "size" 0 (Cluster_index.size t);
  Alcotest.(check (list string)) "nearest" []
    (List.map Value.to_string (Cluster_index.nearest t (Value.string "x") ~k:3))

let test_nulls_and_duplicates_dropped () =
  let t = Cluster_index.build (Value.null :: vs [ "a"; "a"; "b" ]) in
  Alcotest.(check int) "deduped, null-free" 2 (Cluster_index.size t)

let test_nearest_returns_closest_first () =
  let domain = vs [ "Walnut"; "Spruce"; "Canel"; "Broad"; "Oak"; "Walnot" ] in
  let t = Cluster_index.build domain in
  (match Cluster_index.nearest t (Value.string "Walnut") ~k:2 with
  | first :: second :: _ ->
    Alcotest.(check string) "exact value first" "Walnut" (Value.to_string first);
    Alcotest.(check string) "typo neighbour second" "Walnot"
      (Value.to_string second)
  | _ -> Alcotest.fail "expected two results");
  Alcotest.(check int) "k caps results" 3
    (List.length (Cluster_index.nearest t (Value.string "Oak") ~k:3))

let test_nearest_enumerates_everything () =
  let domain = vs [ "a"; "b"; "c"; "d"; "e" ] in
  let t = Cluster_index.build domain in
  let all = Cluster_index.nearest t (Value.string "q") ~k:100 in
  Alcotest.(check int) "all values reachable" 5 (List.length all);
  Alcotest.(check (list string)) "same set"
    (List.map Value.to_string (List.sort Value.compare domain))
    (List.sort String.compare (List.map Value.to_string all))

let test_identical_renderings () =
  (* Int 1 and String "1" render identically; the tree must still hold both. *)
  let t = Cluster_index.build [ Value.int 1; Value.string "1"; Value.int 2 ] in
  Alcotest.(check int) "3 values" 3 (Cluster_index.size t);
  Alcotest.(check int) "all enumerable" 3
    (List.length (Cluster_index.nearest t (Value.int 1) ~k:10))

let test_of_attribute () =
  let schema = Schema.make ~name:"r" [ "A" ] in
  let rel = Relation.create schema in
  List.iter
    (fun s -> ignore (Relation.insert rel [| Value.string s |]))
    [ "x"; "y"; "x" ];
  let t = Cluster_index.of_attribute rel 0 in
  Alcotest.(check int) "distinct adom" 2 (Cluster_index.size t)

let prop_enumeration_complete =
  let word = QCheck.Gen.(string_size ~gen:(char_range 'a' 'd') (1 -- 5)) in
  QCheck.Test.make ~name:"best-first search reaches every leaf" ~count:100
    (QCheck.make QCheck.Gen.(pair (list_size (0 -- 40) word) word))
    (fun (words, query) ->
      let domain = List.sort_uniq String.compare words in
      let t = Cluster_index.build (List.map Value.string domain) in
      let out = Cluster_index.nearest t (Value.string query) ~k:1000 in
      List.length out = List.length domain)

(* Values of one attribute: short strings and small ints, so distances
   tie often and [Int 1] / [String "1"] collide on their rendering. *)
let value_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map Value.string (string_size ~gen:(char_range 'a' 'c') (0 -- 4)));
        (2, map Value.int (0 -- 12));
        (1, map (fun i -> Value.string (string_of_int i)) (0 -- 12));
      ])

let column rel values =
  List.iter (fun v -> ignore (Relation.insert rel [| v |])) values

let column_schema = Schema.make ~name:"r" [ "A" ]

(* The reference answer: the whole active domain sorted by (DL distance,
   frequency descending, Value.compare), cut at k. *)
let brute_force rel query k =
  let q = Value.to_string query in
  Relation.active_domain rel 0
  |> List.map (fun v ->
         ((Cost.dl_distance q (Value.to_string v), - Relation.domain_count rel 0 v), v))
  |> List.sort (fun (k1, v1) (k2, v2) ->
         match compare k1 k2 with 0 -> Value.compare v1 v2 | c -> c)
  |> List.filteri (fun i _ -> i < k)
  |> List.map snd

let print_values vs = String.concat " " (List.map Value.to_display vs)

let prop_nearest_is_exact =
  QCheck.Test.make ~name:"nearest equals a brute-force sort of the domain" ~count:300
    (QCheck.make
       ~print:(fun (vs, q, k) ->
         Printf.sprintf "domain: %s | query: %s | k: %d" (print_values vs)
           (Value.to_display q) k)
       QCheck.Gen.(triple (list_size (0 -- 30) value_gen) value_gen (0 -- 8)))
    (fun (values, query, k) ->
      let rel = Relation.create column_schema in
      column rel (Value.null :: values);
      let got = Cluster_index.nearest (Cluster_index.of_attribute rel 0) query ~k in
      List.equal Value.equal got (brute_force rel query k))

let prop_insert_order_irrelevant =
  (* One index built over the full relation; two kept current with [add]
     while the same rows arrive in two different orders. *)
  QCheck.Test.make ~name:"answers do not depend on insertion order" ~count:200
    (QCheck.make
       ~print:(fun (vs, _, qs) ->
         Printf.sprintf "values: %s | queries: %s" (print_values vs) (print_values qs))
       QCheck.Gen.(
         let* values = list_size (0 -- 30) value_gen in
         let* shuffled = shuffle_l values in
         let* queries = list_size (1 -- 5) value_gen in
         return (values, shuffled, queries)))
    (fun (values, shuffled, queries) ->
      let grown values =
        let rel = Relation.create column_schema in
        let idx = Cluster_index.of_attribute rel 0 in
        List.iter
          (fun v ->
            ignore (Relation.insert rel [| v |]);
            Cluster_index.add idx v)
          values;
        idx
      in
      let full =
        let rel = Relation.create column_schema in
        column rel values;
        Cluster_index.of_attribute rel 0
      in
      let a = grown values and b = grown shuffled in
      List.for_all
        (fun q ->
          let expect = Cluster_index.nearest full q ~k:4 in
          List.equal Value.equal expect (Cluster_index.nearest a q ~k:4)
          && List.equal Value.equal expect (Cluster_index.nearest b q ~k:4))
        queries)

let suite =
  [
    Alcotest.test_case "empty domain" `Quick test_empty;
    Alcotest.test_case "nulls/duplicates dropped" `Quick
      test_nulls_and_duplicates_dropped;
    Alcotest.test_case "closest first" `Quick test_nearest_returns_closest_first;
    Alcotest.test_case "enumeration complete" `Quick
      test_nearest_enumerates_everything;
    Alcotest.test_case "identical renderings" `Quick test_identical_renderings;
    Alcotest.test_case "of_attribute" `Quick test_of_attribute;
    QCheck_alcotest.to_alcotest prop_enumeration_complete;
    QCheck_alcotest.to_alcotest prop_nearest_is_exact;
    QCheck_alcotest.to_alcotest prop_insert_order_irrelevant;
  ]
