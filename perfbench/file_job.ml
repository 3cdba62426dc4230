(* The two file workloads, run in a child process so that its peak
   memory covers the job and not the input generation.

   - file-repair: the CLI path of `cfdclean repair --engine batch
     --jobs 1` on each generated dataset of the run.
   - detect-scan: `cfdclean detect --jobs 2` plus the violation listing
     of `detect -v`, repeated on one large dataset.

   The child writes its measurements as JSON to a file; every check runs
   after the timed work and after peak memory is read. *)

open Dq_relation
open Util
module Csv = Dq_relation.Csv
module Cfd_parser = Dq_cfd.Cfd_parser
module Violation = Dq_cfd.Violation
module Lint = Dq_analysis.Lint
module Pool = Dq_parallel.Pool
module Engine = Dq_engine.Engine
module Report = Dq_obs.Report
module Provenance = Dq_obs.Provenance
module Metrics = Dq_obs.Metrics

(* The CLI's [with_inputs], call for call: CSV load, located parse, the
   errors-only lint gate, resolve. *)
let setup dir =
  let rel =
    layer "csv.load" (fun () ->
        match Csv.load_file_res (Filename.concat dir "dirty.csv") with
        | Ok rel -> rel
        | Error e -> failwith ("dirty.csv: " ^ Csv.error_to_string e))
  in
  let ltabs =
    layer "cfd_parser.parse" (fun () ->
        match Cfd_parser.parse_file_located (Filename.concat dir "rules.cfd") with
        | Ok l -> l
        | Error e -> failwith (Format.asprintf "rules.cfd: %a" Cfd_parser.pp_error e))
  in
  let schema = Relation.schema rel in
  let errors =
    layer "lint.gate" (fun () -> Lint.run ~errors_only:true ~schema ltabs)
  in
  check "the generated ruleset passes the lint gate" (errors = []);
  let sigma =
    layer "cfd_parser.resolve" (fun () ->
        Cfd_parser.resolve schema (Cfd_parser.Located.strip_all ltabs))
  in
  (rel, sigma)

(* [reps] set-ups of one dataset; the last one's inputs are kept. *)
let setups ~reps dir =
  let rec go k acc =
    let inputs, t = timed (fun () -> setup dir) in
    if k <= 1 then (inputs, List.rev (t :: acc)) else go (k - 1) (t :: acc)
  in
  go reps []

let gc_fields () =
  let s = Gc.quick_stat () in
  [
    ("gc.minor_words", Json.Float s.Gc.minor_words);
    ("gc.major_words", Json.Float s.Gc.major_words);
    ( "gc.heap_mb",
      Json.Float (float_of_int (s.Gc.heap_words * (Sys.word_size / 8)) /. 1048576.) );
  ]

(* Total seconds of a Metrics timer in a snapshot. *)
let metric_timer snapshot name =
  match Json.member "timers" snapshot with
  | Some timers -> (
    match Json.member name timers with
    | Some t -> to_float (member "total_s" t)
    | None -> 0.)
  | None -> 0.

let metric_counter snapshot name =
  match Json.member "counters" snapshot with
  | Some c -> ( match Json.member name c with Some v -> to_float v | None -> 0.)
  | None -> 0.

let mean_over n x = x /. float_of_int (max 1 n)

(* Repair quality as Metrics.evaluate defines it: 1 when there is
   nothing to count. *)
let ratio num den = if den = 0 then 1. else float_of_int num /. float_of_int den

(* ---- file-repair -------------------------------------------------------- *)

(* Engine.run with the batch engine, as `repair --engine batch` calls it.
   Traced runs call Batch_repair.repair, which is what the batch engine
   runs, so that the engine statistics the report omits are kept. *)
let repair ~traced pool rel sigma =
  if traced then
    match Dq_core.Batch_repair.repair ~pool rel sigma with
    | Ok ((out, stats), report) -> (out, report, Some stats)
    | Error e -> failwith (Dq_error.to_string e)
  else
    let (module E : Engine.ENGINE) =
      match Engine.find "batch" with
      | Ok e -> e
      | Error e -> failwith (Dq_error.to_string e)
    in
    match E.run (Engine.ctx ~pool rel sigma) with
    | Ok ((out, _stats_line), report) -> (out, report, None)
    | Error e -> failwith (Dq_error.to_string e)

(* One dataset per process, as one `cfdclean repair` would run it. *)
let file_repair ~traced dir =
  let (rel, sigma), setup_ts = setups ~reps:1 dir in
  let (output, report, stats), job_t =
    Pool.with_pool ~jobs:1 @@ fun pool ->
    timed (fun () ->
        layer "engine.run" (fun () ->
            let out, report, stats = repair ~traced pool rel sigma in
            let csv = layer "csv.save" (fun () -> Csv.save_string out) in
            (csv, report, stats)))
  in
  let peak = peak_rss_mb 0 in
  let gc = gc_fields () in
  (* Checks: Σ holds on the output, the provenance trail replays to it
     byte for byte; then quality against Dopt. *)
  let out = Csv.load_string output in
  check (dir ^ ": the repair satisfies sigma") (Violation.satisfies out sigma);
  check
    (dir ^ ": Provenance.replay over the dirty input reproduces the repair")
    (String.equal (Csv.save_string (Provenance.replay rel report.Report.provenance)) output);
  let m =
    Dq_workload.Metrics.evaluate
      ~dopt:(Csv.load_file (Filename.concat dir "clean.csv"))
      ~dirty:rel ~repair:out
  in
  let phase name =
    Json.Float (Option.value ~default:0. (List.assoc_opt name report.Report.phases))
  in
  let stat f = Json.Float (match stats with Some s -> float_of_int (f s) | None -> 0.) in
  Json.Obj
    ([
       ("setup_s", Json.List (List.map (fun t -> Json.Float t) setup_ts));
       ("job_s", Json.List [ Json.Float job_t ]);
       ("tuples", Json.Int (Relation.cardinality rel));
       ("peak_rss_mb", Json.Float peak);
       ("noises", Json.Int m.noises);
       ("changes", Json.Int m.changes);
       ("correct_changes", Json.Int m.correct_changes);
       ("corrected_noises", Json.Int m.corrected_noises);
       ("quality.precision", Json.Float m.precision);
       ("quality.recall", Json.Float m.recall);
       ( "quality.repair_cost",
         Json.Float (Dq_core.Cost.repair_cost ~original:rel ~repair:out) );
       ("cfd_parser.clauses", Json.Float (float_of_int (Array.length sigma)));
       ("batch_repair.init_s", phase "init");
       ("batch_repair.initial_scan_s", phase "initial_scan");
       ("batch_repair.resolve_s", phase "resolve");
       ("batch_repair.write_back_s", phase "write_back");
       ("batch_repair.steps", stat (fun s -> s.Dq_core.Batch_repair.steps));
       ("batch_repair.merges", stat (fun s -> s.Dq_core.Batch_repair.merges));
       ( "batch_repair.instantiate_visits",
         stat (fun s -> s.Dq_core.Batch_repair.instantiate_visits) );
     ]
    @ gc)

(* ---- detect-scan -------------------------------------------------------- *)

let detect ~pool rel sigma =
  let counts = layer "violation.vio_counts" (fun () -> Violation.vio_counts ~pool rel sigma) in
  let found = layer "violation.find_all" (fun () -> Violation.find_all ~pool rel sigma) in
  (counts, found)

let sorted_counts tbl =
  Hashtbl.fold (fun tid n l -> (tid, n) :: l) tbl [] |> List.sort compare

let rendered found = List.map (Format.asprintf "%a" Violation.pp) found

let detect_scan ~reps dir =
  let (rel, sigma), setup_ts = setups ~reps:(min reps 3) dir in
  let jobs = 2 in
  let (counts, found), job_ts =
    Pool.with_pool ~jobs @@ fun pool ->
    let rec go k acc =
      let r, t = timed (fun () -> detect ~pool rel sigma) in
      if k <= 1 then (r, List.rev (t :: acc)) else go (k - 1) (t :: acc)
    in
    go reps []
  in
  let peak = peak_rss_mb 0 in
  let gc = gc_fields () in
  (* Checks: every dirtied tuple is flagged, Dopt is clean, and one job
     gives the same answers as two. *)
  let flagged = Hashtbl.create (Hashtbl.length counts) in
  Hashtbl.iter (fun tid _ -> Hashtbl.replace flagged tid ()) counts;
  let dirty = Gen.read_tids (Filename.concat dir "dirty_tids.txt") in
  let missed = List.filter (fun tid -> not (Hashtbl.mem flagged tid)) dirty in
  check
    (Printf.sprintf "every dirtied tuple is flagged (%d missed)" (List.length missed))
    (missed = []);
  let dopt = Csv.load_file (Filename.concat dir "clean.csv") in
  check "Dopt has no violations"
    (Hashtbl.length (Violation.vio_counts dopt sigma) = 0);
  let counts1, found1 = Pool.with_pool ~jobs:1 (fun pool -> detect ~pool rel sigma) in
  check "vio_counts at jobs 1 and 2 agree" (sorted_counts counts = sorted_counts counts1);
  check "find_all at jobs 1 and 2 agree" (rendered found = rendered found1);
  let hits = List.length dirty - List.length missed in
  Json.Obj
    ([
       ("setup_s", Json.List (List.map (fun t -> Json.Float t) setup_ts));
       ("job_s", Json.List (List.map (fun t -> Json.Float t) job_ts));
       ("tuples", Json.Int (Relation.cardinality rel * reps));
       ("peak_rss_mb", Json.Float peak);
       (* Detection quality at tuple level: flagged tuples that were
          dirtied, and dirtied tuples that were flagged. *)
       ("quality.precision", Json.Float (ratio hits (Hashtbl.length flagged)));
       ("quality.recall", Json.Float (ratio hits (List.length dirty)));
       ("cfd_parser.clauses", Json.Float (float_of_int (Array.length sigma)));
              ("jobs", Json.Int jobs);
     ]
    @ gc)

(* ---- child entry point -------------------------------------------------- *)

(* Traced runs collect spans and the library's own instruments; the
   layer metrics are derived here, next to the events. *)
let layer_metrics ~units ~jobs result =
  let times = span_times (Trace.events ()) in
  let snapshot = Metrics.snapshot () in
  let per_unit name = mean_over units (span_total times name) in
  let busy = metric_timer snapshot "pool.task_busy" in
  let wall = metric_timer snapshot "pool.batch_wall" in
  [
    ("csv.load_s", Json.Float (per_unit "csv.load"));
    ("cfd_parser.parse_s", Json.Float (per_unit "cfd_parser.parse"));
    ("lint.gate_s", Json.Float (per_unit "lint.gate"));
    ("cfd_parser.resolve_s", Json.Float (per_unit "cfd_parser.resolve"));
    ("csv.save_s", Json.Float (per_unit "csv.save"));
    ("violation.vio_counts_s", Json.Float (per_unit "violation.vio_counts"));
    ("violation.find_all_s", Json.Float (per_unit "violation.find_all"));
    ("violation.found", Json.Float (mean_over units (metric_counter snapshot "violation.found")));
    ("pool.tasks", Json.Float (mean_over units (metric_counter snapshot "pool.tasks")));
    ( "pool.busy_ratio",
      Json.Float (if wall > 0. then busy /. (wall *. float_of_int jobs) else 0.) );
  ]
  @ match result with Json.Obj fields -> fields | _ -> []

let main ~workload ~dir ~reps ~traced ~out ~trace_file =
  if traced then begin
    Metrics.set_enabled true;
    Trace.set_enabled true
  end;
  let result, units, jobs =
    match workload with
    | "file-repair" -> (file_repair ~traced dir, 1, 1)
    | "detect-scan" -> (detect_scan ~reps dir, reps, 2)
    | w -> failwith ("no file workload " ^ w)
  in
  let result =
    if traced then begin
      let fields = layer_metrics ~units ~jobs result in
      Trace.write trace_file;
      Json.Obj fields
    end
    else result
  in
  write_file out (to_string result)
