(* Benchmark harness: regenerates every figure of the paper's evaluation
   (Section 7, Figures 8-15), the Theorem 6.1 sample-size curve, the
   ablations called out in DESIGN.md, and Bechamel micro-benchmarks of the
   core primitives.

   Usage: dune exec bench/main.exe --
            [--only SECTION]... [--seeds K] [--scale N] [--out DIR]
            [--trace FILE] [--compare OLD] [--tolerance PCT]

   Every section writes a stable-schema BENCH_<section>.json into the
   --out directory (default "."): the shared CLI envelope whose
   report.summary is {section, scale, seeds, metrics} with metrics a flat
   name -> number map (median over --seeds).  `--compare OLD` (a previous
   BENCH_*.json, or a directory of them) runs no benches; it prints a
   per-metric delta table against the matching files in --out and exits 1
   if any metric regressed past --tolerance percent (time metrics, named
   *_s, regress upward; quality metrics regress downward).

   Sizes are scaled down from the paper's 10k-300k testbed (see DESIGN.md,
   substitutions): the default base size is 4,000 tuples so the full
   harness finishes in minutes; pass --scale to change it.  Shapes, not
   absolute numbers, are the reproduction target; EXPERIMENTS.md records
   the comparison. *)

open Dq_relation
open Dq_cfd
open Dq_core
open Dq_workload
module Pool = Dq_parallel.Pool
module Json = Dq_obs.Json
module Trace = Dq_obs.Trace
module Deadline = Dq_fault.Deadline
module Atomic_io = Dq_fault.Atomic_io

(* ---- command line ---------------------------------------------------- *)

let valid_sections =
  [
    "fig8";
    "fig9";
    "fig10";
    "fig11";
    "fig12";
    "fig13";
    "fig14";
    "fig15";
    "thm61";
    "abl-depgraph";
    "abl-cluster";
    "abl-k";
    "parallel";
    "analyze";
    "engines";
    "serve";
    "micro";
  ]

let only = ref []

let seeds = ref [ 7 ]

let base_n = ref 4_000

let out_dir = ref "."

let compare_against = ref None

let tolerance = ref 15.0

let trace_path = ref None

(* Wall-clock budget for the whole run; checked at section boundaries, so
   a section that has started always runs to completion and its
   BENCH_*.json is whole. *)
let deadline = ref Deadline.never

let sections_ran = ref 0

let sections_skipped = ref 0

let usage () =
  Fmt.epr
    "usage: main.exe [--only SECTION]... [--seeds K] [--scale N] [--out DIR] \
     [--deadline SECS] [--trace FILE] [--compare OLD] [--tolerance PCT]@.\
     \  --only SECTION   run one section (repeatable); SECTION is one of:@.\
     \                   %s@.\
     \  --seeds K        median results over K dataset seeds (default 1)@.\
     \  --scale N        base database size in tuples (default 4000)@.\
     \  --out DIR        directory receiving the per-section BENCH_*.json \
     files (default .)@.\
     \  --deadline SECS  wall-clock budget; sections not yet started when \
     it expires are@.\
     \                   skipped (exit 4 if no section ran at all)@.\
     \  --trace FILE     write a Chrome trace-event dump of the run@.\
     \  --compare OLD    compare OLD (BENCH_*.json file or directory of \
     them) against@.\
     \                   the matching files in --out; no benches run@.\
     \  --tolerance PCT  regression threshold for --compare (default 15)@."
    (String.concat " " valid_sections)

let () =
  let rec parse = function
    | [] -> ()
    | "--only" :: name :: rest ->
      if not (List.mem name valid_sections) then begin
        Fmt.epr "unknown section %S; valid sections are:@.  %s@." name
          (String.concat " " valid_sections);
        exit 2
      end;
      only := name :: !only;
      parse rest
    | "--seeds" :: k :: rest ->
      seeds := List.init (int_of_string k) (fun i -> 7 + (13 * i));
      parse rest
    | "--scale" :: n :: rest ->
      base_n := int_of_string n;
      parse rest
    | "--out" :: dir :: rest ->
      out_dir := dir;
      parse rest
    | "--trace" :: path :: rest ->
      trace_path := Some path;
      parse rest
    | "--deadline" :: secs :: rest ->
      let s = float_of_string secs in
      if s < 0. then begin
        Fmt.epr "--deadline must be non-negative (got %g)@." s;
        exit 2
      end;
      deadline := Deadline.after s;
      parse rest
    | "--compare" :: old :: rest ->
      compare_against := Some old;
      parse rest
    | "--tolerance" :: pct :: rest ->
      tolerance := float_of_string pct;
      parse rest
    | arg :: _ ->
      Fmt.epr "unknown argument %S@." arg;
      usage ();
      exit 2
  in
  match parse (List.tl (Array.to_list Sys.argv)) with
  | () -> ()
  | exception (Failure _ | Invalid_argument _) ->
    usage ();
    exit 2

let enabled name = !only = [] || List.mem name !only

let section name title =
  if not (enabled name) then false
  else if Deadline.expired !deadline then begin
    incr sections_skipped;
    Fmt.pr "@.=== %s — skipped (deadline expired) ===@." name;
    false
  end
  else begin
    incr sections_ran;
    Fmt.pr "@.=== %s — %s ===@." name title;
    true
  end

(* ---- per-section BENCH_<section>.json --------------------------------- *)

(* The same envelope schema the CLI emits with --format json, so CI reads
   BENCH_*.json and `cfdclean ... --format json` with one parser.  The
   metrics map is flat name -> number, the unit of comparison for
   --compare: names are stable across PRs, values are medians over
   --seeds.  Names ending in _s are wall-clock seconds (lower is better);
   all others are quality/size metrics (higher is better). *)
let write_section sect metrics =
  let report =
    Dq_obs.Report.make ~engine:"bench"
      ~summary:
        [
          ("section", Json.String sect);
          ("scale", Json.Int !base_n);
          ("seeds", Json.Int (List.length !seeds));
          ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics));
        ]
      ()
  in
  let doc =
    Dq_obs.Envelope.make ~request:"bench" ~ok:true
      ~report:(Dq_obs.Report.to_json report)
      ~diagnostics:[] ()
  in
  let path = Filename.concat !out_dir ("BENCH_" ^ sect ^ ".json") in
  match Atomic_io.write_file path (Json.to_string doc) with
  | () -> Fmt.pr "wrote %s@." path
  | exception Sys_error msg ->
    Fmt.epr "bench: cannot write %s: %s@." path msg;
    exit 2

(* ---- shared machinery ------------------------------------------------ *)

type outcome = { precision : float; recall : float; runtime : float }

(* The engines return results with an attached observability report; the
   bench only wants the (value, stats) pair and treats errors as fatal. *)
let engine_ok = function
  | Ok (pair, _report) -> pair
  | Error e -> failwith (Dq_error.to_string e)

let time f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let dataset ?(n = !base_n) seed =
  Datagen.generate (Datagen.default_params ~n_tuples:n ~seed ())

let dirtied ?(rate = 0.05) ?(constant_share = 0.5) ds seed =
  Noise.inject (Noise.default_params ~rate ~constant_share ~seed ()) ds

let score ds (info : Noise.info) repair runtime =
  let m =
    Metrics.evaluate ~dopt:ds.Datagen.dopt ~dirty:info.Noise.dirty ~repair
  in
  { precision = m.Metrics.precision; recall = m.Metrics.recall; runtime }

let run_batch ?(sigma = None) ds info =
  let sigma = match sigma with Some s -> s | None -> ds.Datagen.sigma in
  let (repair, _), runtime =
    time (fun () -> engine_ok (Batch_repair.repair info.Noise.dirty sigma))
  in
  assert (Violation.satisfies repair sigma);
  score ds info repair runtime

let run_inc ordering ds info =
  let (repair, _), runtime =
    time (fun () ->
        engine_ok
          (Inc_repair.repair_dirty ~ordering info.Noise.dirty ds.Datagen.sigma))
  in
  assert (Violation.satisfies repair ds.Datagen.sigma);
  score ds info repair runtime

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Component-wise median over seeds: robust to one seed hitting a noisy
   scheduler moment, which an average would smear into every metric. *)
let over_seeds f =
  let os = List.map f !seeds in
  {
    precision = median (List.map (fun o -> o.precision) os);
    recall = median (List.map (fun o -> o.recall) os);
    runtime = median (List.map (fun o -> o.runtime) os);
  }

let pct x = 100. *. x

(* Print one table row of floats under a label. *)
let row label values =
  Fmt.pr "%-14s" label;
  List.iter (Fmt.pr " %8.1f") values;
  Fmt.pr "@."

let header label columns =
  Fmt.pr "%-14s" label;
  List.iter (fun c -> Fmt.pr " %8s" c) columns;
  Fmt.pr "@."

let noise_rates = [ 0.01; 0.03; 0.05; 0.08; 0.10 ]

(* ---- Figure 8: efficacy of CFDs vs plain FDs ------------------------- *)

let fig8 () =
  if section "fig8" "CFDs vs embedded FDs (BATCHREPAIR accuracy)" then begin
    (* three points: the FD baseline is slow (no constant anchors; see
       EXPERIMENTS.md) *)
    let rates = [ 0.02; 0.06; 0.10 ] in
    header "rho(%)" (List.map (fun r -> Fmt.str "%g" (pct r)) rates);
    let metrics = ref [] in
    let per_constraints name sigma_of =
      let prec = ref [] and rec_ = ref [] in
      List.iter
        (fun rate ->
          let o =
            over_seeds (fun seed ->
                let ds = dataset seed in
                let info = dirtied ~rate ds (seed + 1) in
                run_batch ~sigma:(Some (sigma_of ds)) ds info)
          in
          let tag = Fmt.str "%s.rho%g" name (pct rate) in
          metrics :=
            ((tag ^ ".recall", o.recall) :: (tag ^ ".prec", o.precision)
            :: !metrics);
          prec := pct o.precision :: !prec;
          rec_ := pct o.recall :: !rec_)
        rates;
      row (name ^ "/Prec") (List.rev !prec);
      row (name ^ "/Recall") (List.rev !rec_)
    in
    per_constraints "CFD" (fun ds -> ds.Datagen.sigma);
    per_constraints "FD" (fun ds ->
        Cfd.number (Cfd.embedded_fds (Array.to_list ds.Datagen.sigma)));
    write_section "fig8" (List.rev !metrics)
  end

(* ---- Figures 9, 10 and 13: accuracy and time vs noise rate ----------- *)

let algorithms =
  [
    ("BatchRepair", fun ds info -> run_batch ds info);
    ("V-IncRepair", run_inc Inc_repair.By_violations);
    ("W-IncRepair", run_inc Inc_repair.By_weight);
    ("L-IncRepair", run_inc Inc_repair.Linear);
  ]

let fig9_10_13 () =
  let want9 = enabled "fig9"
  and want10 = enabled "fig10"
  and want13 = enabled "fig13" in
  if want9 || want10 || want13 then begin
    let results =
      List.map
        (fun (name, algo) ->
          ( name,
            List.map
              (fun rate ->
                ( rate,
                  over_seeds (fun seed ->
                      let ds = dataset seed in
                      let info = dirtied ~rate ds (seed + 1) in
                      algo ds info) ))
              noise_rates ))
        algorithms
    in
    let cols = List.map (fun r -> Fmt.str "%g" (pct r)) noise_rates in
    let collect proj suffix =
      List.concat_map
        (fun (name, os) ->
          List.map
            (fun (rate, o) ->
              (Fmt.str "%s.rho%g.%s" name (pct rate) suffix, proj o))
            os)
        results
    in
    if section "fig9" "Precision vs noise rate (%)" then begin
      header "rho(%)" cols;
      List.iter
        (fun (name, os) ->
          row name (List.map (fun (_, o) -> pct o.precision) os))
        results;
      write_section "fig9" (collect (fun o -> o.precision) "prec")
    end;
    if section "fig10" "Recall vs noise rate (%)" then begin
      header "rho(%)" cols;
      List.iter
        (fun (name, os) -> row name (List.map (fun (_, o) -> pct o.recall) os))
        results;
      write_section "fig10" (collect (fun o -> o.recall) "recall")
    end;
    if section "fig13" "Runtime vs noise rate (seconds)" then begin
      header "rho(%)" cols;
      List.iter
        (fun (name, os) ->
          Fmt.pr "%-14s" name;
          List.iter (fun (_, o) -> Fmt.pr " %8.2f" o.runtime) os;
          Fmt.pr "@.")
        results;
      write_section "fig13" (collect (fun o -> o.runtime) "runtime_s")
    end
  end

(* ---- Figure 11: BATCHREPAIR scalability in |D| ----------------------- *)

let fig11 () =
  if section "fig11" "BATCHREPAIR runtime vs database size (rho = 5%)" then begin
    let sizes = List.map (fun k -> k * !base_n / 2) [ 1; 2; 3; 4; 5 ] in
    header "tuples" (List.map string_of_int sizes);
    let times =
      List.map
        (fun n ->
          ( n,
            (over_seeds (fun seed ->
                 let ds = dataset ~n seed in
                 let info = dirtied ds (seed + 1) in
                 run_batch ds info))
              .runtime ))
        sizes
    in
    Fmt.pr "%-14s" "BatchRepair";
    List.iter (fun (_, t) -> Fmt.pr " %8.2f" t) times;
    Fmt.pr "@.";
    write_section "fig11"
      (List.concat_map
         (fun (n, t) ->
           [
             (Fmt.str "BatchRepair.n%d.runtime_s" n, t);
             (Fmt.str "BatchRepair.n%d.tps" n, float_of_int n /. Float.max 1e-9 t);
           ])
         times)
  end

(* ---- Figure 12: incremental setting ---------------------------------- *)

let fig12 () =
  if
    section "fig12"
      "Incremental: runtime vs number of dirty tuples inserted into a clean \
       database"
  then begin
    let base_size = !base_n * 3 / 2 in
    let max_inserts = 70 in
    let counts = [ 10; 20; 30; 40; 50; 60; 70 ] in
    header "#inserted" (List.map string_of_int counts);
    let per_seed seed =
      (* Build a clean base plus a pool of dirty insertions. *)
      let ds = dataset ~n:(base_size + max_inserts) seed in
      let rate = float_of_int max_inserts /. float_of_int (base_size + max_inserts) in
      let info = dirtied ~rate ds (seed + 1) in
      let dirty_set = Hashtbl.create 64 in
      List.iter (fun tid -> Hashtbl.replace dirty_set tid ()) info.Noise.dirty_tids;
      let base = Relation.create Order_schema.schema in
      let pool = ref [] in
      Relation.iter
        (fun t ->
          if Hashtbl.mem dirty_set (Tuple.tid t) then pool := Tuple.copy t :: !pool
          else Relation.add base (Tuple.copy t))
        info.Noise.dirty;
      let pool = Array.of_list (List.rev !pool) in
      (ds, base, pool)
    in
    let inc_times = ref [] and batch_times = ref [] in
    List.iter
      (fun k ->
        let inc = ref [] and batch = ref [] in
        List.iter
          (fun seed ->
            let ds, base, pool = per_seed seed in
            let delta = Array.to_list (Array.sub pool 0 (min k (Array.length pool))) in
            let (_, stats) =
              engine_ok (Inc_repair.repair_inserts base delta ds.Datagen.sigma)
            in
            inc := stats.Inc_repair.runtime :: !inc;
            let whole = Relation.copy base in
            List.iter (fun t -> Relation.add whole (Tuple.copy t)) delta;
            let (_, bstats) = engine_ok (Batch_repair.repair whole ds.Datagen.sigma) in
            batch := bstats.Batch_repair.runtime :: !batch)
          !seeds;
        inc_times := (k, median !inc) :: !inc_times;
        batch_times := (k, median !batch) :: !batch_times)
      counts;
    let inc_times = List.rev !inc_times
    and batch_times = List.rev !batch_times in
    Fmt.pr "%-14s" "IncRepair";
    List.iter (fun (_, t) -> Fmt.pr " %8.2f" t) inc_times;
    Fmt.pr "@.%-14s" "BatchRepair";
    List.iter (fun (_, t) -> Fmt.pr " %8.2f" t) batch_times;
    Fmt.pr "@.";
    write_section "fig12"
      (List.map (fun (k, t) -> (Fmt.str "IncRepair.k%d.runtime_s" k, t)) inc_times
      @ List.map
          (fun (k, t) -> (Fmt.str "BatchRepair.k%d.runtime_s" k, t))
          batch_times)
  end

(* ---- Figures 14 and 15: constant vs variable CFD violations ---------- *)

let fig14_15 () =
  let want14 = enabled "fig14" and want15 = enabled "fig15" in
  if want14 || want15 then begin
    let shares = [ 0.2; 0.4; 0.6; 0.8 ] in
    let results =
      List.map
        (fun (name, algo) ->
          ( name,
            List.map
              (fun share ->
                ( share,
                  over_seeds (fun seed ->
                      let ds = dataset seed in
                      let info = dirtied ~constant_share:share ds (seed + 1) in
                      algo ds info) ))
              shares ))
        [
          ("BatchRepair", fun ds info -> run_batch ds info);
          ("IncRepair", run_inc Inc_repair.By_violations);
        ]
    in
    let cols = List.map (fun s -> Fmt.str "%g" (pct s)) shares in
    let collect proj suffix =
      List.concat_map
        (fun (name, os) ->
          List.map
            (fun (share, o) ->
              (Fmt.str "%s.c%g.%s" name (pct share) suffix, proj o))
            os)
        results
    in
    if
      section "fig14"
        "Accuracy vs %% of dirty tuples violating constant CFDs"
    then begin
      header "const(%)" cols;
      List.iter
        (fun (name, os) ->
          row (name ^ "/Prec") (List.map (fun (_, o) -> pct o.precision) os);
          row (name ^ "/Recall") (List.map (fun (_, o) -> pct o.recall) os))
        results;
      write_section "fig14"
        (collect (fun o -> o.precision) "prec"
        @ collect (fun o -> o.recall) "recall")
    end;
    if section "fig15" "Runtime vs %% constant-CFD violations (seconds)" then begin
      header "const(%)" cols;
      List.iter
        (fun (name, os) ->
          Fmt.pr "%-14s" name;
          List.iter (fun (_, o) -> Fmt.pr " %8.2f" o.runtime) os;
          Fmt.pr "@.")
        results;
      write_section "fig15" (collect (fun o -> o.runtime) "runtime_s")
    end
  end

(* ---- Theorem 6.1: Chernoff sample sizes ------------------------------ *)

let thm61 () =
  if
    section "thm61" "Chernoff sample-size bound (delta = 0.95, varying c, eps)"
  then begin
    let cs = [ 1; 5; 10; 20; 50 ] in
    header "c" (List.map string_of_int cs);
    let metrics = ref [] in
    List.iter
      (fun epsilon ->
        Fmt.pr "%-14s" (Fmt.str "eps=%.2f" epsilon);
        List.iter
          (fun c ->
            let size =
              Stats.chernoff_sample_size ~epsilon ~confidence:0.95 ~c
            in
            metrics :=
              (Fmt.str "eps%g.c%d.size" epsilon c, float_of_int size)
              :: !metrics;
            Fmt.pr " %8d" size)
          cs;
        Fmt.pr "@.")
      [ 0.01; 0.05; 0.10 ];
    write_section "thm61" (List.rev !metrics)
  end

(* ---- Ablations -------------------------------------------------------- *)

let ablation outcomes =
  List.concat_map
    (fun (label, o) ->
      [
        (label ^ ".prec", o.precision);
        (label ^ ".recall", o.recall);
        (label ^ ".runtime_s", o.runtime);
      ])
    outcomes

let ablation_depgraph () =
  if
    section "abl-depgraph"
      "BATCHREPAIR with/without the dependency-graph stratum bias"
  then begin
    header "" [ "prec"; "recall"; "seconds" ];
    let outcomes =
      List.map
        (fun (label, use_dependency_graph) ->
          let o =
            over_seeds (fun seed ->
                let ds = dataset seed in
                let info = dirtied ds (seed + 1) in
                let (repair, _), runtime =
                  time (fun () ->
                      engine_ok
                        (Batch_repair.repair ~use_dependency_graph
                           info.Noise.dirty ds.Datagen.sigma))
                in
                score ds info repair runtime)
          in
          row label [ pct o.precision; pct o.recall; o.runtime ];
          (label, o))
        [ ("with", true); ("without", false) ]
    in
    write_section "abl-depgraph" (ablation outcomes)
  end

let ablation_cluster () =
  if
    section "abl-cluster"
      "INCREPAIR with/without the cost-based cluster index"
  then begin
    header "" [ "prec"; "recall"; "seconds" ];
    let outcomes =
      List.map
        (fun (label, use_cluster_index) ->
          let o =
            over_seeds (fun seed ->
                let ds = dataset seed in
                let info = dirtied ds (seed + 1) in
                let (repair, _), runtime =
                  time (fun () ->
                      engine_ok
                        (Inc_repair.repair_dirty ~use_cluster_index
                           info.Noise.dirty ds.Datagen.sigma))
                in
                score ds info repair runtime)
          in
          row label [ pct o.precision; pct o.recall; o.runtime ];
          (label, o))
        [ ("with", true); ("without", false) ]
    in
    write_section "abl-cluster" (ablation outcomes)
  end

let ablation_k () =
  if section "abl-k" "TUPLERESOLVE: attributes fixed per greedy step (k)" then begin
    header "k" [ "prec"; "recall"; "seconds" ];
    let outcomes =
      List.map
        (fun k ->
          let o =
            over_seeds (fun seed ->
                let ds = dataset seed in
                let info = dirtied ds (seed + 1) in
                let (repair, _), runtime =
                  time (fun () ->
                      engine_ok
                        (Inc_repair.repair_dirty ~k info.Noise.dirty
                           ds.Datagen.sigma))
                in
                score ds info repair runtime)
          in
          row (string_of_int k) [ pct o.precision; pct o.recall; o.runtime ];
          (Fmt.str "k%d" k, o))
        [ 1; 2; 3 ]
    in
    write_section "abl-k" (ablation outcomes)
  end

(* ---- Parallel scaling -------------------------------------------------- *)

(* Time detection ([find_all], [vio_counts]) and the hybrid repair
   ([Inc_repair.repair_dirty], whose scoring passes parallelise but whose
   resolve loop is sequential) at several job counts and two database
   sizes.  Besides wall-clock, every run is cross-checked against the
   1-job baseline — the engine's contract is byte-identical output at any
   job count — and the whole table lands in BENCH_parallel.json so CI or
   EXPERIMENTS.md can track the curves ("identical" is 1.0 when every run
   matched its baseline). *)

type parallel_entry = {
  pe_n : int;
  pe_jobs : int;
  pe_find_all : float;
  pe_vio_counts : float;
  pe_repair : float;
  pe_identical : bool;
}

let parallel () =
  if
    section "parallel"
      "Detection and repair at several job counts (byte-identical outputs)"
  then begin
    let jobs_list = [ 1; 2; 4 ] in
    let scales = [ !base_n; 2 * !base_n ] in
    let best_of k f =
      let result = ref None and best = ref infinity in
      for _ = 1 to k do
        let r, t = time f in
        result := Some r;
        if t < !best then best := t
      done;
      (Option.get !result, !best)
    in
    (* Job-count-independent projections of each result, for the
       identity cross-check. *)
    let violations_key vs =
      List.map (fun v -> (Cfd.id (Violation.cfd_of v), Violation.tids v)) vs
    in
    let counts_key counts =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])
    in
    let entries = ref [] in
    List.iter
      (fun n ->
        let ds = dataset ~n 7 in
        let info = dirtied ds 8 in
        let rel = info.Noise.dirty and sigma = ds.Datagen.sigma in
        let baseline = ref None in
        List.iter
          (fun jobs ->
            Pool.with_pool ~jobs @@ fun pool ->
            let vs, t_find =
              best_of 3 (fun () -> Violation.find_all ~pool rel sigma)
            in
            let counts, t_counts =
              best_of 3 (fun () -> Violation.vio_counts ~pool rel sigma)
            in
            let (repaired, _), t_repair =
              best_of 1 (fun () -> engine_ok (Inc_repair.repair_dirty ~pool rel sigma))
            in
            let key = (violations_key vs, counts_key counts, Csv.save_string repaired) in
            let identical =
              match !baseline with
              | None ->
                baseline := Some key;
                true
              | Some base -> base = key
            in
            entries :=
              {
                pe_n = n;
                pe_jobs = jobs;
                pe_find_all = t_find;
                pe_vio_counts = t_counts;
                pe_repair = t_repair;
                pe_identical = identical;
              }
              :: !entries)
          jobs_list)
      scales;
    let entries = List.rev !entries in
    header "n/jobs"
      (List.concat_map
         (fun c -> List.map (fun j -> Fmt.str "%s j%d" c j) jobs_list)
         [ "find"; "counts"; "repair" ]);
    List.iter
      (fun n ->
        let es = List.filter (fun e -> e.pe_n = n) entries in
        Fmt.pr "%-14s" (string_of_int n);
        List.iter (fun e -> Fmt.pr " %8.3f" e.pe_find_all) es;
        List.iter (fun e -> Fmt.pr " %8.3f" e.pe_vio_counts) es;
        List.iter (fun e -> Fmt.pr " %8.3f" e.pe_repair) es;
        Fmt.pr "@.")
      scales;
    let all_identical = List.for_all (fun e -> e.pe_identical) entries in
    if all_identical then
      Fmt.pr "outputs identical across job counts: yes@."
    else Fmt.pr "outputs identical across job counts: NO — BUG@.";
    (match List.find_opt (fun e -> e.pe_jobs = 2) entries with
    | Some e2 ->
      let e1 = List.find (fun e -> e.pe_jobs = 1 && e.pe_n = e2.pe_n) entries in
      Fmt.pr "find_all speedup at 2 jobs (n=%d): %.2fx (%d core(s) available)@."
        e2.pe_n
        (e1.pe_find_all /. e2.pe_find_all)
        (Pool.default_jobs ())
    | None -> ());
    write_section "parallel"
      (("identical", if all_identical then 1.0 else 0.0)
      :: List.concat_map
           (fun e ->
             let tag = Fmt.str "n%d.j%d" e.pe_n e.pe_jobs in
             [
               (tag ^ ".find_all_s", e.pe_find_all);
               (tag ^ ".vio_counts_s", e.pe_vio_counts);
               (tag ^ ".repair_s", e.pe_repair);
             ])
           entries)
  end

(* ---- analyze: Σ-interaction analyzer and partitioned repair ----------- *)

(* The analyzer itself is cheap; the interesting numbers are what its
   shard plan buys BATCHREPAIR on the generated workload (whose Σ carries
   the phi2/phi4 dependency cycle): byte-identical output at 1 and 4
   jobs, and fewer class-root visits across instantiation rounds — the
   re-resolution churn each full-width round pays on columns some other
   shard owns. *)
let analyze_bench () =
  if
    section "analyze" "Σ-interaction analysis and shard-partitioned repair"
  then begin
    let runs =
      List.map
        (fun seed ->
          let ds = dataset seed in
          let info = dirtied ds (seed + 1) in
          let rel = info.Noise.dirty and sigma = ds.Datagen.sigma in
          let a, t_analyze =
            time (fun () ->
                Dq_analysis.Interaction.analyze ~data:rel
                  (Relation.schema rel) sigma)
          in
          let (seq, seq_stats), t_seq =
            time (fun () -> engine_ok (Batch_repair.repair rel sigma))
          in
          let partition = a.Dq_analysis.Interaction.partition in
          let (part, part_stats), t_part =
            time (fun () -> engine_ok (Batch_repair.repair ~partition rel sigma))
          in
          let part4 =
            Pool.with_pool ~jobs:4 (fun pool ->
                fst (engine_ok (Batch_repair.repair ~pool ~partition rel sigma)))
          in
          let seq_csv = Csv.save_string seq in
          let identical =
            String.equal seq_csv (Csv.save_string part)
            && String.equal seq_csv (Csv.save_string part4)
          in
          (a, t_analyze, t_seq, seq_stats, t_part, part_stats, identical))
        !seeds
    in
    let med f = median (List.map f runs) in
    let a0, _, _, _, _, _, _ = List.hd runs in
    let n_shards = List.length a0.Dq_analysis.Interaction.shards in
    let n_cycles = List.length a0.Dq_analysis.Interaction.cycles in
    let n_osc = List.length a0.Dq_analysis.Interaction.oscillations in
    let seq_visits =
      med (fun (_, _, _, s, _, _, _) ->
          float_of_int s.Batch_repair.instantiate_visits)
    in
    let part_visits =
      med (fun (_, _, _, _, _, p, _) ->
          float_of_int p.Batch_repair.instantiate_visits)
    in
    let all_identical =
      List.for_all (fun (_, _, _, _, _, _, i) -> i) runs
    in
    Fmt.pr "shards: %d  cycles: %d  oscillation pairs: %d@." n_shards
      n_cycles n_osc;
    header "" [ "analyze"; "seq"; "part" ];
    row "time (s)"
      [
        med (fun (_, t, _, _, _, _, _) -> t) *. 1000.;
        med (fun (_, _, t, _, _, _, _) -> t) *. 1000.;
        med (fun (_, _, _, _, t, _, _) -> t) *. 1000.;
      ];
    row "inst. visits" [ 0.; seq_visits; part_visits ];
    Fmt.pr "re-resolution drop (root visits saved): %.0f@."
      (seq_visits -. part_visits);
    if all_identical then
      Fmt.pr "partitioned output identical at 1 and 4 jobs: yes@."
    else Fmt.pr "partitioned output identical at 1 and 4 jobs: NO — BUG@.";
    write_section "analyze"
      [
        ("identical", if all_identical then 1.0 else 0.0);
        ("n_shards", float_of_int n_shards);
        ("n_cycles", float_of_int n_cycles);
        ("n_oscillations", float_of_int n_osc);
        ("analyze_s", med (fun (_, t, _, _, _, _, _) -> t));
        ("seq_repair_s", med (fun (_, _, t, _, _, _, _) -> t));
        ("part_repair_s", med (fun (_, _, _, _, t, _, _) -> t));
        ( "seq_steps",
          med (fun (_, _, _, s, _, _, _) -> float_of_int s.Batch_repair.steps)
        );
        ( "part_steps",
          med (fun (_, _, _, _, _, p, _) -> float_of_int p.Batch_repair.steps)
        );
        ("seq_instantiate_visits", seq_visits);
        ("part_instantiate_visits", part_visits);
        ("reresolution_drop", seq_visits -. part_visits);
      ]
  end

(* ---- engines: pluggable repair engines head-to-head -------------------- *)

module Engine = Dq_engine.Engine

(* Batch, inc and opt-fd on the same dirty instance over the FD-only
   acyclic fragment of the workload Σ (the largest ruleset all three
   accept).  The engines are deterministic, so the cost and cell metrics
   are drift-free tripwires: any delta against the committed baseline is
   a semantic change to an engine, not noise.  Each engine is also
   re-run at 4 jobs and must reproduce its 1-job bytes and report. *)
let engines_bench () =
  if
    section "engines" "Repair engines head-to-head (batch / inc / opt-fd)"
  then begin
    let resolve name =
      match Engine.find name with
      | Ok e -> e
      | Error e -> failwith (Dq_error.to_string e)
    in
    let run (module E : Engine.ENGINE) ?pool rel sigma =
      match E.run (Engine.ctx ?pool rel sigma) with
      | Ok ((repaired, _line), report) -> (repaired, report)
      | Error e -> failwith (Dq_error.to_string e)
    in
    (* Greedily keep embedded FDs of Σ while the opt-fd fragment check
       still accepts the prefix — drops the clauses that close the
       workload's phi2/phi4 dependency cycle. *)
    let fd_fragment schema sigma =
      let (module O : Engine.ENGINE) = resolve "opt-fd" in
      let keep =
        List.fold_left
          (fun acc c ->
            let candidate = Cfd.number (List.rev (c :: acc)) in
            match O.fragment schema candidate with
            | Ok () -> c :: acc
            | Error _ -> acc)
          []
          (Cfd.embedded_fds (Array.to_list sigma))
      in
      Cfd.number (List.rev keep)
    in
    let engine_names = [ "batch"; "inc"; "opt-fd" ] in
    let per_seed seed =
      let ds = dataset seed in
      let info = dirtied ds (seed + 1) in
      let rel = info.Noise.dirty in
      let sigma = fd_fragment (Relation.schema rel) ds.Datagen.sigma in
      List.map
        (fun name ->
          let e = resolve name in
          let (repaired, report), t = time (fun () -> run e rel sigma) in
          assert (Violation.satisfies repaired sigma);
          let repaired4, report4 =
            Pool.with_pool ~jobs:4 (fun pool -> run e ~pool rel sigma)
          in
          let identical =
            String.equal (Csv.save_string repaired) (Csv.save_string repaired4)
            && Dq_obs.Report.equal report report4
          in
          ( name,
            t,
            Cost.repair_cost ~original:rel ~repair:repaired,
            float_of_int (Relation.dif rel repaired),
            identical ))
        engine_names
    in
    let runs = List.map per_seed !seeds in
    let med name proj =
      median
        (List.map
           (fun run ->
             let _, t, cost, cells, _ =
               List.find (fun (n, _, _, _, _) -> n = name) run
             in
             proj (t, cost, cells))
           runs)
    in
    let all_identical =
      List.for_all (List.for_all (fun (_, _, _, _, i) -> i)) runs
    in
    header "" [ "seconds"; "cost"; "cells" ];
    List.iter
      (fun name ->
        row name
          [
            med name (fun (t, _, _) -> t);
            med name (fun (_, c, _) -> c);
            med name (fun (_, _, cl) -> cl);
          ])
      engine_names;
    let batch_cost = med "batch" (fun (_, c, _) -> c) in
    let optfd_cost = med "opt-fd" (fun (_, c, _) -> c) in
    Fmt.pr "opt-fd cost <= batch cost: %s@."
      (if optfd_cost <= batch_cost +. 1e-9 then "yes" else "NO — BUG");
    if all_identical then
      Fmt.pr "outputs and reports identical at 1 and 4 jobs: yes@."
    else Fmt.pr "outputs and reports identical at 1 and 4 jobs: NO — BUG@.";
    write_section "engines"
      (("identical", if all_identical then 1.0 else 0.0)
      :: ( "optfd_cost_le_batch",
           if optfd_cost <= batch_cost +. 1e-9 then 1.0 else 0.0 )
      :: ("optfd_cost_saving", batch_cost -. optfd_cost)
      :: List.concat_map
           (fun name ->
             [
               (name ^ ".repair_s", med name (fun (t, _, _) -> t));
               (name ^ ".cost", med name (fun (_, c, _) -> c));
               (name ^ ".cells", med name (fun (_, _, cl) -> cl));
             ])
           engine_names)
  end

(* ---- serve: telemetry overhead ----------------------------------------- *)

module Serve = Dq_serve.Serve

(* One-shot HTTP GET against the in-process daemon; the daemon closes the
   connection after the response, so read to EOF. *)
let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf "GET %s HTTP/1.1\r\ncontent-length: 0\r\n\r\n" path
      in
      let _ = Unix.write_substring fd req 0 (String.length req) in
      let buf = Bytes.create 65536 in
      let out = Buffer.create 1024 in
      let rec drain () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes out buf 0 n;
          drain ()
      in
      drain ();
      Buffer.contents out)

let http_post port path body =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf "POST %s HTTP/1.1\r\ncontent-length: %d\r\n\r\n%s" path
          (String.length body) body
      in
      let _ = Unix.write_substring fd req 0 (String.length req) in
      let buf = Bytes.create 65536 in
      let out = Buffer.create 1024 in
      let rec drain () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes out buf 0 n;
          drain ()
      in
      drain ();
      Buffer.contents out)

(* The same request stream against a telemetry-off daemon and a
   telemetry-on one (request counters, latency histograms, gauges, ids).
   The off configuration is the zero-overhead baseline the serve tests
   pin byte-identical; the ratio is the price of turning collection on.
   overhead_ratio = off/on, so less overhead is a higher (better)
   number and --compare flags a telemetry slowdown as a regression. *)
let serve_bench () =
  if section "serve" "Serving telemetry overhead and concurrent throughput" then begin
    let requests = max 20 (!base_n / 20) in
    let per_request telemetry =
      let d =
        match
          Serve.start
            { Serve.port = 0; state_dir = None; jobs = 1; resume = false;
              telemetry; limits = Serve.default_limits }
        with
        | Ok d -> d
        | Error e -> failwith (Dq_error.to_string e)
      in
      Fun.protect
        ~finally:(fun () ->
          Serve.stop d;
          Dq_obs.Metrics.set_enabled false)
        (fun () ->
          let port = Serve.port d in
          for _ = 1 to 10 do
            ignore (http_get port "/v1/health")
          done;
          let (), t =
            time (fun () ->
                for _ = 1 to requests do
                  ignore (http_get port "/v1/health")
                done)
          in
          t /. float_of_int requests)
    in
    let runs =
      List.map
        (fun _seed ->
          (per_request Serve.telemetry_off, per_request Serve.default_telemetry))
        !seeds
    in
    let t_off = median (List.map fst runs) in
    let t_on = median (List.map snd runs) in
    header "" [ "us/req" ];
    row "off" [ t_off *. 1e6 ];
    row "on" [ t_on *. 1e6 ];
    Fmt.pr "telemetry overhead over %d requests: %+.1f%%@." requests
      (((t_on /. t_off) -. 1.) *. 100.);
    (* Two independent sessions' batch streams, first back-to-back from
       one client and then from two concurrent clients, against a daemon
       with worker domains on: per-session lanes keep each stream FIFO
       while the repair compute overlaps across sessions.  The speedup
       is the concurrency dividend --compare holds against the committed
       baseline. *)
    let expect_2xx what resp =
      if not (String.length resp > 9 && resp.[9] = '2') then
        failwith
          (Printf.sprintf "serve bench: %s did not answer 2xx: %s" what
             (String.sub resp 0 (min 64 (String.length resp))))
    in
    let create_body =
      {|{"schema":{"name":"r","attributes":["A","B","C","D"]},"rules":"p1: [A] -> [B]\np2: [C] -> [D]\n","force":true}|}
    in
    let batch_count = 6 in
    let batch_rows = max 100 (!base_n / 2) in
    let st = Random.State.make [| 0x5e21 |] in
    let batches =
      List.init batch_count (fun _ ->
          let row () =
            Printf.sprintf "[%d,%d,%d,%d]"
              (Random.State.int st 20) (Random.State.int st 200)
              (Random.State.int st 20) (Random.State.int st 200)
          in
          Printf.sprintf {|{"tuples":[%s]}|}
            (String.concat "," (List.init batch_rows (fun _ -> row ()))))
    in
    let with_conc_daemon f =
      let d =
        match
          Serve.start
            { Serve.port = 0; state_dir = None; jobs = 1; resume = false;
              telemetry = Serve.telemetry_off;
              limits = { Serve.default_limits with ingest_workers = 2 } }
        with
        | Ok d -> d
        | Error e -> failwith (Dq_error.to_string e)
      in
      Fun.protect
        ~finally:(fun () -> Serve.stop d)
        (fun () ->
          let port = Serve.port d in
          expect_2xx "create s1" (http_post port "/v1/sessions" create_body);
          expect_2xx "create s2" (http_post port "/v1/sessions" create_body);
          f port)
    in
    let post_all port sid =
      List.iter
        (fun b ->
          expect_2xx ("ingest " ^ sid)
            (http_post port ("/v1/sessions/" ^ sid ^ "/tuples") b))
        batches
    in
    let conc_runs =
      List.map
        (fun _seed ->
          let t_seq =
            with_conc_daemon (fun port ->
                let (), t =
                  time (fun () ->
                      post_all port "s1";
                      post_all port "s2")
                in
                t)
          in
          let t_conc =
            with_conc_daemon (fun port ->
                let (), t =
                  time (fun () ->
                      let ts =
                        List.map
                          (fun sid ->
                            Thread.create (fun () -> post_all port sid) ())
                          [ "s1"; "s2" ]
                      in
                      List.iter Thread.join ts)
                in
                t)
          in
          (t_seq, t_conc))
        !seeds
    in
    let t_seq = median (List.map fst conc_runs) in
    let t_conc = median (List.map snd conc_runs) in
    header "2 sessions" [ "s" ];
    row "sequential" [ t_seq ];
    row "concurrent" [ t_conc ];
    Fmt.pr
      "concurrent-sessions speedup (%d batches x %d rows each): %.2fx on %d \
       core(s)@."
      batch_count batch_rows (t_seq /. t_conc)
      (Domain.recommended_domain_count ());
    if Domain.recommended_domain_count () < 2 then
      Fmt.pr
        "  (single core: worker domains cannot overlap; expect the dividend \
         only on >= 2 cores)@.";
    write_section "serve"
      [
        ("request_s_off", t_off);
        ("request_s_on", t_on);
        ("overhead_ratio", t_off /. t_on);
        ("ingest_s_sequential", t_seq);
        ("ingest_s_concurrent", t_conc);
        ("concurrent_speedup", t_seq /. t_conc);
      ]
  end

(* ---- Bechamel micro-benchmarks ---------------------------------------- *)

let micro () =
  if section "micro" "Bechamel micro-benchmarks of the core primitives" then begin
    let open Bechamel in
    let ds = dataset ~n:2_000 7 in
    let info = dirtied ds 8 in
    let sigma = ds.Datagen.sigma in
    let clean = ds.Datagen.dopt in
    let dirty_tuple =
      Relation.find_exn info.Noise.dirty (List.hd info.Noise.dirty_tids)
    in
    let env = Tuple_resolve.make_env clean sigma in
    (* Warm the lazy nearest-value indexes out of the measured path. *)
    ignore (Tuple_resolve.resolve env (Tuple.copy dirty_tuple));
    let zip_index = Cluster_index.of_attribute clean Order_schema.zip in
    let zip_query = Tuple.get dirty_tuple Order_schema.zip in
    let tests =
      Test.make_grouped ~name:"core"
        [
          Test.make ~name:"dl-distance" (Staged.stage (fun () ->
               Cost.dl_distance "Philadelphia" "Philadlephia"));
          Test.make ~name:"violation-scan-2k" (Staged.stage (fun () ->
               Violation.satisfies clean sigma));
          Test.make ~name:"lhs-index-build-2k" (Staged.stage (fun () ->
               Lhs_index.build sigma clean));
          Test.make ~name:"nearest-lookup" (Staged.stage (fun () ->
               Cluster_index.nearest zip_index zip_query ~k:4));
          Test.make ~name:"tuple-resolve" (Staged.stage (fun () ->
               Tuple_resolve.resolve env (Tuple.copy dirty_tuple)));
        ]
    in
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
    let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
    let ols =
      Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |]
    in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    let rows =
      Hashtbl.fold
        (fun name res acc ->
          match Analyze.OLS.estimates res with
          | Some (est :: _) -> (name, est) :: acc
          | _ -> acc)
        results []
      |> List.sort compare
    in
    List.iter
      (fun (name, ns) ->
        if ns > 1e6 then Fmt.pr "%-28s %10.3f ms/run@." name (ns /. 1e6)
        else if ns > 1e3 then Fmt.pr "%-28s %10.3f us/run@." name (ns /. 1e3)
        else Fmt.pr "%-28s %10.1f ns/run@." name ns)
      rows;
    write_section "micro"
      (List.map (fun (name, ns) -> (name ^ ".runtime_s", ns /. 1e9)) rows)
  end

(* ---- --compare: the perf-trajectory gate ------------------------------- *)

let json_of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> (
    match Json.parse s with
    | Ok v -> v
    | Error msg ->
      Fmt.epr "bench: --compare: %s: %s@." path msg;
      exit 2)
  | exception Sys_error msg ->
    Fmt.epr "bench: --compare: %s@." msg;
    exit 2

let number = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

(* Pull (section, metrics) out of a BENCH_*.json envelope. *)
let section_metrics path doc =
  let ( let* ) = Option.bind in
  match
    let* report = Json.member "report" doc in
    let* summary = Json.member "summary" report in
    let* sect =
      match Json.member "section" summary with
      | Some (Json.String s) -> Some s
      | _ -> None
    in
    let* metrics =
      match Json.member "metrics" summary with
      | Some (Json.Obj fields) ->
        Some
          (List.filter_map
             (fun (k, v) -> Option.map (fun f -> (k, f)) (number v))
             fields)
      | _ -> None
    in
    Some (sect, metrics)
  with
  | Some r -> r
  | None ->
    Fmt.epr
      "bench: --compare: %s does not look like a per-section BENCH_*.json \
       (missing report.summary.section/metrics)@."
      path;
    exit 2

(* Lower-is-better metrics get a small absolute slack on top of the
   relative tolerance so micro-scale timings (a few ms) don't flag on
   scheduler noise alone. *)
let time_slack_s = 0.005

type verdict = Regressed | Improved | Unchanged

(* Seconds carry an [s] name segment ([batch.repair_s], [request_s_off]);
   a name whose last segment is [cost] or [cells] counts work done. *)
let lower_is_better name =
  let segments =
    List.concat_map (String.split_on_char '.') (String.split_on_char '_' name)
  in
  List.mem "s" segments
  ||
  match List.rev segments with
  | ("cost" | "cells") :: _ -> true
  | _ -> false

let judge name ~old_v ~new_v =
  let tol = !tolerance /. 100. in
  let lower_is_better = lower_is_better name in
  let rel =
    if Float.abs old_v > 1e-12 then (new_v -. old_v) /. Float.abs old_v
    else if Float.abs new_v > 1e-12 then Float.infinity
    else 0.
  in
  if lower_is_better then
    if rel > tol && new_v -. old_v > time_slack_s then Regressed
    else if rel < -.tol && old_v -. new_v > time_slack_s then Improved
    else Unchanged
  else if rel < -.tol then Regressed
  else if rel > tol then Improved
  else Unchanged

let compare_files old_path =
  let new_path sect = Filename.concat !out_dir ("BENCH_" ^ sect ^ ".json") in
  let olds =
    if Sys.is_directory old_path then
      Sys.readdir old_path |> Array.to_list
      |> List.filter (fun f ->
             String.length f > 6
             && String.sub f 0 6 = "BENCH_"
             && Filename.check_suffix f ".json")
      |> List.sort String.compare
      |> List.map (Filename.concat old_path)
    else [ old_path ]
  in
  if olds = [] then begin
    Fmt.epr "bench: --compare: no BENCH_*.json files in %s@." old_path;
    exit 2
  end;
  let regressions = ref 0 in
  List.iter
    (fun old_file ->
      let sect, old_metrics = section_metrics old_file (json_of_file old_file) in
      let nf = new_path sect in
      if not (Sys.file_exists nf) then begin
        Fmt.epr "bench: --compare: %s (for section %s) does not exist — run \
                 `--only %s --out %s` first@."
          nf sect sect !out_dir;
        exit 2
      end;
      let sect', new_metrics = section_metrics nf (json_of_file nf) in
      if sect' <> sect then begin
        Fmt.epr "bench: --compare: %s claims section %s but %s claims %s@."
          old_file sect nf sect';
        exit 2
      end;
      Fmt.pr "@.=== compare %s (old: %s, new: %s, tolerance %g%%) ===@." sect
        old_file nf !tolerance;
      Fmt.pr "%-36s %12s %12s %9s@." "metric" "old" "new" "delta";
      List.iter
        (fun (name, old_v) ->
          match List.assoc_opt name new_metrics with
          | None ->
            incr regressions;
            Fmt.pr "%-36s %12.4g %12s %9s REGRESSED (metric disappeared)@."
              name old_v "-" "-"
          | Some new_v ->
            let delta =
              if Float.abs old_v > 1e-12 then
                100. *. (new_v -. old_v) /. Float.abs old_v
              else 0.
            in
            let verdict = judge name ~old_v ~new_v in
            Fmt.pr "%-36s %12.4g %12.4g %8.1f%%%s@." name old_v new_v delta
              (match verdict with
              | Regressed ->
                incr regressions;
                " REGRESSED"
              | Improved -> " improved"
              | Unchanged -> ""))
        old_metrics;
      List.iter
        (fun (name, _) ->
          if List.assoc_opt name old_metrics = None then
            Fmt.pr "%-36s %12s (new metric)@." name "-")
        new_metrics)
    olds;
  if !regressions > 0 then begin
    Fmt.pr "@.%d metric(s) regressed past %g%%@." !regressions !tolerance;
    exit 1
  end
  else Fmt.pr "@.no regressions (tolerance %g%%)@." !tolerance

let () =
  match !compare_against with
  | Some old_path -> compare_files old_path
  | None ->
    (match !trace_path with
    | Some _ ->
      Trace.clear ();
      Trace.set_enabled true
    | None -> ());
    let started = Unix.gettimeofday () in
    Fmt.pr
      "dataqual bench harness — base size %d tuples, %d seed(s)@.\
       (scaled-down testbed; see EXPERIMENTS.md for paper-vs-measured)@."
      !base_n (List.length !seeds);
    fig8 ();
    fig9_10_13 ();
    fig11 ();
    fig12 ();
    fig14_15 ();
    thm61 ();
    ablation_depgraph ();
    ablation_cluster ();
    ablation_k ();
    parallel ();
    analyze_bench ();
    engines_bench ();
    serve_bench ();
    micro ();
    (match !trace_path with
    | Some path -> (
      try
        Trace.write path;
        Fmt.pr "wrote %s@." path
      with Sys_error msg -> Fmt.epr "bench: --trace: %s@." msg)
    | None -> ());
    Fmt.pr "@.total bench time: %.1fs@." (Unix.gettimeofday () -. started);
    if !sections_skipped > 0 then begin
      Fmt.pr "%d section(s) skipped — deadline expired@." !sections_skipped;
      if !sections_ran = 0 then exit 4
    end
