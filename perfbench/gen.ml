(* Input generation.  Everything is a pure function of the seed: the
   datasets come from Datagen (the clean database Dopt and Σ) and Noise
   (the dirty copy), exactly as `cfdclean generate` builds them. *)

open Dq_relation
module Datagen = Dq_workload.Datagen
module Noise = Dq_workload.Noise
module Csv = Dq_relation.Csv

(* The seed of the [i]-th dataset of a run.  Distinct runs' seeds give
   disjoint dataset seeds as long as a run uses fewer than 1000. *)
let sub_seed seed i = (seed * 1000) + i

type dataset = {
  ds : Datagen.dataset;
  noise : Noise.info;
}

(* ρ = 5%, constant share 0.5: the defaults of `cfdclean generate`. *)
let rate = 0.05

let dataset ~n ~seed =
  let ds = Datagen.generate (Datagen.default_params ~n_tuples:n ~seed ()) in
  let noise = Noise.inject (Noise.default_params ~rate ~seed ()) ds in
  { ds; noise }

(* The files the CLI would be given: the dirty CSV and the ruleset, plus
   the clean CSV and the dirtied tids the checks compare against. *)
let write_files dir d =
  Util.write_file (Filename.concat dir "dirty.csv") (Csv.save_string d.noise.dirty);
  Util.write_file
    (Filename.concat dir "rules.cfd")
    (Dq_cfd.Cfd_parser.to_string d.ds.tableaus);
  Util.write_file (Filename.concat dir "clean.csv") (Csv.save_string d.ds.dopt);
  Util.write_file
    (Filename.concat dir "dirty_tids.txt")
    (String.concat "\n" (List.map string_of_int d.noise.dirty_tids) ^ "\n")

let read_tids path =
  Util.read_file path |> String.split_on_char '\n'
  |> List.filter_map int_of_string_opt

(* ---- serve streams ------------------------------------------------------ *)

(* One session's data: a clean base taken from Dopt and a stream taken
   from the dirty copy of the tuples after it, with the clean values the
   quality metrics compare against. *)
type stream = {
  attributes : string list;
  rules : string;  (** ruleset source, uploaded at session creation *)
  base : Value.t array list;
  rows : Value.t array list;  (** the stream, dirty at rate ρ *)
  clean_rows : Value.t array list;  (** Dopt's values for [rows] *)
}

(* The stream holds exactly ρ·rows dirty tuples: the first dirty and
   the first clean tuples after the base, in dataset order.  Noise
   dirties exactly ρ of a dataset, but a slice of it only about ρ, and
   the number of dirty tuples decides most of a stream's cost. *)
let stream ~base ~rows ~seed =
  let d = dataset ~n:(base + (3 * rows / 2)) ~seed in
  let dirtied = Hashtbl.create 64 in
  List.iter (fun tid -> Hashtbl.replace dirtied tid ()) d.noise.dirty_tids;
  let want_dirty = int_of_float (Float.round (rate *. float_of_int rows)) in
  let pairs =
    List.combine (Relation.to_list d.ds.dopt) (Relation.to_list d.noise.dirty)
  in
  let rec pick n_dirty n_clean acc = function
    | [] -> List.rev acc
    | _ when n_dirty = want_dirty && n_clean = rows - want_dirty -> List.rev acc
    | ((_, dirty) as p) :: rest ->
      if Hashtbl.mem dirtied (Tuple.tid dirty) then
        if n_dirty < want_dirty then pick (n_dirty + 1) n_clean (p :: acc) rest
        else pick n_dirty n_clean acc rest
      else if n_clean < rows - want_dirty then pick n_dirty (n_clean + 1) (p :: acc) rest
      else pick n_dirty n_clean acc rest
  in
  let base_rows = List.filteri (fun i _ -> i < base) pairs in
  let picked = pick 0 0 [] (List.filteri (fun i _ -> i >= base) pairs) in
  {
    attributes = Array.to_list (Schema.attributes (Relation.schema d.ds.dopt));
    rules = Dq_cfd.Cfd_parser.to_string d.ds.tableaus;
    base = List.map (fun (c, _) -> Tuple.values c) base_rows;
    rows = List.map (fun (_, t) -> Tuple.values t) picked;
    clean_rows = List.map (fun (c, _) -> Tuple.values c) picked;
  }

let rec chunks k = function
  | [] -> []
  | l ->
    let rec split i acc = function
      | x :: rest when i < k -> split (i + 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let c, rest = split 0 [] l in
    c :: chunks k rest

(* The request body of one ingest batch.  Values travel as JSON scalars,
   typed as in CSV files (the daemon maps them back one to one). *)
let batch_body rows =
  Util.to_string
    (Dq_obs.Json.Obj
       [
         ( "tuples",
           Dq_obs.Json.List
             (List.map
                (fun vs ->
                  Dq_obs.Json.List
                    (Array.to_list (Array.map Dq_obs.Json.of_value vs)))
                rows) );
       ])

let create_body ~name s =
  Util.to_string
    (Dq_obs.Json.Obj
       [
         ( "schema",
           Dq_obs.Json.Obj
             [
               ("name", Dq_obs.Json.String name);
               ( "attributes",
                 Dq_obs.Json.List
                   (List.map (fun a -> Dq_obs.Json.String a) s.attributes) );
             ] );
         ("rules", Dq_obs.Json.String s.rules);
         ("engine", Dq_obs.Json.String "l-inc");
         (* The generated Σ has the φ6/φ7 cycle the termination gate
            refuses. *)
         ("force", Dq_obs.Json.Bool true);
       ])
