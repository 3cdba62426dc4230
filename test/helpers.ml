(* Shared fixtures: the paper's Figure 1 running example. *)
open Dq_relation
open Dq_cfd

let order_schema =
  Schema.make ~name:"order"
    [ "id"; "name"; "PR"; "AC"; "PN"; "STR"; "CT"; "ST"; "zip" ]

let v = Value.string

let row values weights =
  (Array.of_list (List.map Value.of_string values), Array.of_list weights)

(* Figure 1(a), including the wt rows. *)
let fig1_rows =
  [
    row
      [ "a23"; "H. Porter"; "17.99"; "215"; "8983490"; "Walnut"; "PHI"; "PA"; "19014" ]
      [ 1.0; 0.5; 0.5; 0.5; 0.5; 0.8; 0.8; 0.8; 0.8 ];
    row
      [ "a23"; "H. Porter"; "17.99"; "610"; "3456789"; "Spruce"; "PHI"; "PA"; "19014" ]
      [ 1.0; 0.5; 0.5; 0.5; 0.5; 0.6; 0.6; 0.6; 0.6 ];
    row
      [ "a12"; "J. Denver"; "7.94"; "212"; "3345677"; "Canel"; "PHI"; "PA"; "10012" ]
      [ 1.0; 0.9; 0.9; 0.9; 0.9; 0.6; 0.1; 0.1; 0.8 ];
    row
      [ "a89"; "Snow White"; "18.99"; "212"; "5674322"; "Broad"; "PHI"; "PA"; "10012" ]
      [ 1.0; 0.6; 0.5; 0.9; 0.9; 0.1; 0.6; 0.6; 0.9 ];
  ]

let fig1_db () =
  let rel = Relation.create order_schema in
  List.iter (fun (values, weights) -> ignore (Relation.insert ~weights rel values)) fig1_rows;
  rel

let wild = Pattern.Wild

let const s = Pattern.const (Value.of_string s)

(* phi1 = ([AC,PN] -> [STR,CT,ST], T1) of Figure 1(b). *)
let phi1 =
  Cfd.Tableau.
    {
      name = "phi1";
      lhs_attrs = [ "AC"; "PN" ];
      rhs_attrs = [ "STR"; "CT"; "ST" ];
      rows =
        [
          { lhs = [ wild; wild ]; rhs = [ wild; wild; wild ] };
          { lhs = [ const "212"; wild ]; rhs = [ wild; const "NYC"; const "NY" ] };
          { lhs = [ const "610"; wild ]; rhs = [ wild; const "PHI"; const "PA" ] };
          { lhs = [ const "215"; wild ]; rhs = [ wild; const "PHI"; const "PA" ] };
        ];
    }

(* phi2 = ([zip] -> [CT,ST], T2). *)
let phi2 =
  Cfd.Tableau.
    {
      name = "phi2";
      lhs_attrs = [ "zip" ];
      rhs_attrs = [ "CT"; "ST" ];
      rows =
        [
          { lhs = [ wild ]; rhs = [ wild; wild ] };
          { lhs = [ const "10012" ]; rhs = [ const "NYC"; const "NY" ] };
          { lhs = [ const "19014" ]; rhs = [ const "PHI"; const "PA" ] };
        ];
    }

(* phi3, phi4: the traditional FDs of Figure 2. *)
let phi3 = Cfd.Tableau.fd ~name:"phi3" ~lhs:[ "id" ] ~rhs:[ "name"; "PR" ]

let phi4 = Cfd.Tableau.fd ~name:"phi4" ~lhs:[ "CT"; "STR" ] ~rhs:[ "zip" ]

let fig1_sigma () =
  Cfd.number
    (List.concat_map (Cfd.normalize order_schema) [ phi1; phi2; phi3; phi4 ])

let value = Alcotest.testable Value.pp Value.equal

(* Random-instance generators shared by the property suites: small
   relations over a fixed 4-attribute schema, and random CFD sets (random
   FDs plus random constant rows) over a tiny value universe so
   violations are common. *)
module Gen = struct
  let attrs = [ "A"; "B"; "C"; "D" ]

  let schema = Schema.make ~name:"r" attrs

  let value_gen =
    QCheck.Gen.(map (fun i -> Value.string (Printf.sprintf "v%d" i)) (0 -- 4))

  let tuple_gen =
    QCheck.Gen.(array_size (return (List.length attrs)) value_gen)

  let relation_gen =
    QCheck.Gen.(
      map
        (fun rows ->
          let rel = Relation.create schema in
          List.iter (fun values -> ignore (Relation.insert rel values)) rows;
          rel)
        (list_size (1 -- 25) tuple_gen))

  (* A random normal-form clause: distinct LHS attrs, one RHS attr, each
     pattern position either wild or a small constant. *)
  let clause_gen =
    QCheck.Gen.(
      let* lhs_size = 1 -- 2 in
      let* perm = shuffle_l attrs in
      let lhs_attrs = List.filteri (fun i _ -> i < lhs_size) perm in
      let rhs_attr = List.nth perm lhs_size in
      let pattern_gen =
        oneof [ return Pattern.Wild; map (fun v -> Pattern.const v) value_gen ]
      in
      let* lhs_pats = flatten_l (List.map (fun _ -> pattern_gen) lhs_attrs) in
      let* rhs_pat = pattern_gen in
      return
        (Cfd.make schema
           ~lhs:(List.combine lhs_attrs lhs_pats)
           ~rhs:(rhs_attr, rhs_pat)))

  let sigma_gen =
    QCheck.Gen.(map (fun l -> Cfd.number l) (list_size (1 -- 6) clause_gen))

  let instance_gen = QCheck.Gen.pair relation_gen sigma_gen

  let instance = QCheck.make instance_gen
end

(* Random tableaux in which several pattern rows share an embedded FD, each
   row listing X in its own order (the RHS may sit in X too), over
   relations with nulls in X and A. *)
module Tableau_gen = struct
  open QCheck.Gen

  let cell = frequency [ (1, return Value.null); (5, Gen.value_gen) ]

  let relation_gen =
    map
      (fun rows ->
        let rel = Relation.create Gen.schema in
        List.iter (fun values -> ignore (Relation.insert rel values)) rows;
        rel)
      (list_size (0 -- 25) (array_size (return (List.length Gen.attrs)) cell))

  let pattern =
    frequency
      [ (2, return Pattern.Wild); (1, map (fun v -> Pattern.const v) Gen.value_gen) ]

  let fd_rows =
    let* size = 1 -- 3 in
    let* perm = shuffle_l Gen.attrs in
    let x = List.filteri (fun i _ -> i < size) perm in
    let* a = oneofl Gen.attrs in
    let* n_rows = 1 -- 4 in
    list_repeat n_rows
      (let* order = shuffle_l x in
       let* pats = flatten_l (List.map (fun _ -> pattern) order) in
       let* rhs_pat = pattern in
       return (Cfd.make Gen.schema ~lhs:(List.combine order pats) ~rhs:(a, rhs_pat)))

  let sigma_gen =
    let* fds = list_size (1 -- 3) fd_rows in
    map Cfd.number (shuffle_l (List.concat fds))

  let instance = QCheck.make (pair relation_gen sigma_gen)
end

(* Substring check for error-message assertions. *)
let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

(* Unwrap an engine [result], dropping the attached observability report.
   Failing the running test with the error message beats [Result.get_ok]'s
   anonymous [Invalid_argument]. *)
let ok = function
  | Ok (payload, _report) -> payload
  | Error e -> Alcotest.failf "engine error: %s" (Dq_error.to_string e)

(* Same, but keep the report for observability-focused assertions. *)
let ok_report = function
  | Ok (_payload, report) -> report
  | Error e -> Alcotest.failf "engine error: %s" (Dq_error.to_string e)

(* Both halves: the engine payload and its report. *)
let ok2 = function
  | Ok pair -> pair
  | Error e -> Alcotest.failf "engine error: %s" (Dq_error.to_string e)

(* The naive O(n·|Σ|) detection the compiled clause index replaces: the
   reference the differential properties compare against. *)
module Oracle = struct
  (* Case 2 of Section 3.1 for two tuples against a wildcard-RHS clause
     (always [false] for a constant-RHS clause — such conflicts surface as
     case 1). *)
  let pair_conflict cfd t1 t2 =
    Pattern.is_wild (Cfd.rhs_pattern cfd)
    && Cfd.applies_lhs cfd t1 && Cfd.applies_lhs cfd t2
    && Vkey.equal (Cfd.lhs_key cfd t1) (Cfd.lhs_key cfd t2)
    &&
    let v1 = Tuple.get t1 (Cfd.rhs cfd) and v2 = Tuple.get t2 (Cfd.rhs cfd) in
    (not (Value.is_null v1)) && (not (Value.is_null v2)) && not (Value.equal v1 v2)

  (* [vio(t)]: the violations [t] incurs against the relation.  The tuple
     need not belong to it. *)
  let vio_tuple rel sigma t =
    Array.fold_left
      (fun vio cfd ->
        if Violation.violates_constant cfd t then vio + 1
        else
          Relation.fold
            (fun vio t' ->
              if Tuple.tid t' <> Tuple.tid t && pair_conflict cfd t t' then
                vio + 1
              else vio)
            vio rel)
      0 sigma

  (* The RHS value [Lhs_index] should force on [t] for [cfd]: [tp[A]] for
     a constant clause, else the first non-null one held by a tuple of
     [rel] (in relation order) matching the pattern with the same LHS
     key. *)
  let expected_rhs rel cfd t =
    if not (Cfd.applies_lhs cfd t) then None
    else
      match Cfd.rhs_pattern cfd with
      | Pattern.Const a -> Some a
      | Pattern.Wild ->
        Relation.fold
          (fun found t' ->
            match found with
            | Some _ -> found
            | None ->
              let v = Tuple.get t' (Cfd.rhs cfd) in
              if
                Cfd.applies_lhs cfd t'
                && Vkey.equal (Cfd.lhs_key cfd t') (Cfd.lhs_key cfd t)
                && not (Value.is_null v)
              then Some v
              else None)
          None rel
end
