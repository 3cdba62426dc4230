(* Entry point.

     perfbench --workload W --seed N --seconds S --trace 0|1
               --cfdclean PATH --work DIR

   runs one workload and prints, as the last line of stdout, one JSON
   object {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1.  A
   failed correctness check prints no result and exits 1.

   The file workloads re-run this executable as a child
   (`perfbench job ...`) so that peak memory covers only the job. *)

open Util

let workloads = [ "file-repair"; "detect-scan"; "serve-stream"; "serve-fanout" ]

(* ---- work per run ----------------------------------------------------------

   The work of a run is a fixed function of --seconds, so two commits
   measured with the same settings do the same work.  The factors were
   chosen on a 2-core machine, where a run at --seconds 10 (set-ups,
   timed work and checks) takes 15-35 s. *)

let file_rows = 3_000

(* Many small datasets rather than one large one: a batch repair's time
   varies by dataset, and the median over many is steady. *)
let datasets ~seconds = max 1 (3 * seconds)

let detect_rows = 20_000

let scans ~seconds = max 1 seconds

(* Rows per session: 20 five-row batches per second of --seconds for the
   stream (200 at 10 s, so that ingest p95 has 10 samples beyond it),
   10 ten-row batches per session for the fan-out. *)
let stream_rows ~seconds (spec : Serve_job.spec) =
  spec.batch_rows * seconds * if spec.sessions = 1 then 20 else 10

(* ---- results ------------------------------------------------------------------ *)

let e2e ~setup ~job ~tuples_per_s ~peak =
  [
    ("setup_s", setup, "s");
    ("job_s", job, "s");
    ("tuples_per_s", tuples_per_s, "tuples/s");
    ("peak_rss_mb", peak, "MiB");
  ]

let floats j = match j with Json.List l -> List.map to_float l | _ -> []

(* End-to-end metrics from a job's raw measurements. *)
let summarize raw =
  let setup = median (floats (member "setup_s" raw)) in
  let jobs = floats (member "job_s" raw) in
  let tuples = to_float (member "tuples" raw) in
  (* For serve, acknowledged tuples over the wall time of the stream
     phase; for a file workload, the rows of one job over its median time
     (a mean would follow the few datasets whose repair takes several
     times the usual). *)
  let tuples_per_s =
    match Json.member "wall_s" raw with
    | Some wall -> tuples /. to_float wall
    | None -> tuples /. float_of_int (List.length jobs) /. median jobs
  in
  e2e ~setup ~job:(median jobs) ~tuples_per_s
    ~peak:(to_float (member "peak_rss_mb" raw))

let metric_json l =
  Json.Obj
    (List.map
       (fun (name, value, unit) ->
         (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ]))
       l)

(* ---- running a workload ------------------------------------------------------- *)

(* Run job processes, [parallel] at a time; each writes its measurements
   to job.json in its own dataset directory. *)
let rec run_jobs ~parallel = function
  | [] -> []
  | jobs ->
    let now_jobs = List.filteri (fun i _ -> i < parallel) jobs in
    let later = List.filteri (fun i _ -> i >= parallel) jobs in
    let started =
      List.map
        (fun (dir, args) ->
          let out = Filename.concat dir "job.json" in
          let argv =
            Array.of_list (Sys.executable_name :: "job" :: "--out" :: out :: "--dir" :: dir :: args)
          in
          (Unix.create_process Sys.executable_name argv Unix.stdin Unix.stderr Unix.stderr, out))
        now_jobs
    in
    let results =
      List.map
        (fun (pid, out) ->
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> Ok (read_json out)
          | _, Unix.WEXITED 1 -> Error (Check_failed "a job process reported a failed check")
          | _ -> Error (Failure "a job process failed"))
        started
    in
    List.map (function Ok r -> r | Error e -> raise e) results @ run_jobs ~parallel later

let file_inputs ~workload ~seed ~seconds ~trace ~dir =
  let n, count =
    if workload = "file-repair" && not trace then (file_rows, datasets ~seconds)
    else if workload = "file-repair" then (file_rows, 1)
    else (detect_rows, 1)
  in
  List.init count (fun i ->
      let d = Filename.concat dir (Printf.sprintf "data-%d" i) in
      Sys.mkdir d 0o755;
      Gen.write_files d (Gen.dataset ~n ~seed:(Gen.sub_seed seed i));
      d)

(* The file workloads' measurements, one job process per dataset, merged:
   samples concatenated, peak memory the median over the processes (the
   largest follows the one heaviest dataset), quality over all cells. *)
let merge = function
  | [] -> failwith "no datasets"
  | [ raw ] -> raw
  | first :: _ as raws ->
    let all name = Json.List (List.concat_map (fun r -> match member name r with Json.List l -> l | _ -> []) raws) in
    let total name = List.fold_left (fun a r -> a + to_int (member name r)) 0 raws in
    let ratio num den = if total den = 0 then 1. else float_of_int (total num) /. float_of_int (total den) in
    let merged =
      [
        ("setup_s", all "setup_s");
        ("job_s", all "job_s");
        ("tuples", Json.Int (total "tuples"));
        ("peak_rss_mb", Json.Float (median (List.map (fun r -> to_float (member "peak_rss_mb" r)) raws)));
        ("quality.precision", Json.Float (ratio "correct_changes" "changes"));
        ("quality.recall", Json.Float (ratio "corrected_noises" "noises"));
      ]
    in
    match first with
    | Json.Obj fields ->
      Json.Obj (merged @ List.filter (fun (k, _) -> not (List.mem_assoc k merged)) fields)
    | _ -> first

(* One pass over the workload; [traced] turns spans and instruments on.
   Traced runs of the file workloads do one job, on the first dataset.
   Returns the raw measurements, the operations attempted and failed. *)
let pass ~workload ~seed ~seconds ~cfdclean ~dir ~trace ~traced ~inputs =
  match workload with
  | "file-repair" | "detect-scan" ->
    let reps = if trace || workload = "file-repair" then 1 else scans ~seconds in
    let dirs = Lazy.force inputs in
    let dirs = if trace then [ List.hd dirs ] else dirs in
    (* file-repair runs two jobs at a time, one per core: each core of the
       2-core machine the sizes were chosen on has spells of running up
       to 1.7x slower, independently of the other, and a run spread over
       both cores is less at the mercy of one. *)
    let raws =
      run_jobs
        ~parallel:(if workload = "file-repair" then 2 else 1)
        (List.map
           (fun d ->
             ( d,
               [ "--workload"; workload; "--reps"; string_of_int reps;
                 "--trace-file"; Filename.concat dir "trace.json" ]
               @ if traced then [ "--traced" ] else [] ))
           dirs)
    in
    let raw = merge raws in
    let ops = List.length (floats (member "setup_s" raw)) + List.length (floats (member "job_s" raw)) in
    (raw, ops, 0)
  | "serve-stream" | "serve-fanout" ->
    let spec = if workload = "serve-stream" then Serve_job.stream_spec else Serve_job.fanout_spec in
    if traced then Trace.set_enabled true;
    let attempted0 = !Serve_job.Ops.attempted and failed0 = Serve_job.Ops.failed () in
    let raw =
      Serve_job.run ~cfdclean ~dir ~seed ~stream_rows:(stream_rows ~seconds spec)
        ~setups:(if trace then 1 else 3) ~traced spec
    in
    Trace.set_enabled false;
    (raw, !Serve_job.Ops.attempted - attempted0, Serve_job.Ops.failed () - failed0)
  | w -> failwith ("unknown workload " ^ w)

(* The per-layer metrics of a traced run, each with its unit.  A layer
   a workload bypasses reads 0 on it. *)
let layer_metrics =
  [
    ("csv.load_s", "s"); ("cfd_parser.parse_s", "s"); ("cfd_parser.clauses", "count");
    ("lint.gate_s", "s"); ("cfd_parser.resolve_s", "s"); ("csv.save_s", "s");
    ("violation.vio_counts_s", "s"); ("violation.find_all_s", "s");
    ("violation.found", "count"); ("pool.tasks", "count"); ("pool.busy_ratio", "ratio");
    ("batch_repair.init_s", "s"); ("batch_repair.initial_scan_s", "s");
    ("batch_repair.resolve_s", "s"); ("batch_repair.write_back_s", "s");
    ("batch_repair.steps", "count"); ("batch_repair.merges", "count");
    ("batch_repair.instantiate_visits", "count"); ("inc_repair.resolve_s", "s");
    ("inc_repair.resolves", "count"); ("tuple_resolve.self_s", "s");
    ("store.checkpoint_s", "s"); ("store.checkpoint_bytes", "bytes");
    ("http.post_tuples.client_s", "s"); ("http.get_session.client_s", "s");
    ("http.get_relation.client_s", "s"); ("serve.post_tuples.server_s", "s");
    ("serve.get_session.server_s", "s"); ("serve.get_relation.server_s", "s");
    ("serve.ingest_p50_s", "s"); ("serve.ingest_p95_s", "s");
    ("serve.ingest_samples", "count"); ("serve.read_p50_s", "s"); ("serve.read_p95_s", "s");
    ("serve.read_samples", "count"); ("loadgen.late_p95_s", "s");
    ("workers.overlap", "ratio"); ("gc.minor_words", "words"); ("gc.major_words", "words");
    ("gc.heap_mb", "MiB"); ("quality.precision", "ratio"); ("quality.recall", "ratio");
    ("quality.repair_cost", "cost");
  ]

(* Sample counts and spread of the timed samples, on stderr. *)
let report_samples ~workload raw =
  List.iter
    (fun name ->
      let xs = floats (member name raw) in
      let shown =
        if List.length xs <= 10 then String.concat " " (List.map (Printf.sprintf "%.4f") xs)
        else
          Printf.sprintf "p50 %.4f p95 %.4f max %.4f" (percentile 0.5 xs)
            (percentile 0.95 xs) (List.fold_left max 0. xs)
      in
      Printf.eprintf "perfbench: %s %s: %d samples: %s\n%!" workload name (List.length xs) shown)
    [ "setup_s"; "job_s" ]

let main ~workload ~seed ~seconds ~trace ~cfdclean ~dir =
  if not (List.mem workload workloads) then failwith ("unknown workload " ^ workload);
  let inputs =
    lazy
      (if workload = "file-repair" || workload = "detect-scan" then
         file_inputs ~workload ~seed ~seconds ~trace ~dir
       else [])
  in
  let pass traced = pass ~workload ~seed ~seconds ~cfdclean ~dir ~trace ~traced ~inputs in
  let raw, attempted, failed = pass false in
  report_samples ~workload raw;
  if failed > 0 then
    Printf.eprintf "perfbench: %s: %d of %d operations failed: %s\n%!" workload failed attempted
      (String.concat ", "
         (List.map (fun (c, n) -> Printf.sprintf "%s x%s" c (to_string n)) (Serve_job.Ops.by_cause ())));
  let plain = summarize raw in
  let metrics =
    if not trace then plain
    else begin
      (* The traced pass repeats the same work with spans and instruments
         on; the per-layer metrics come from it, and the difference of
         its end-to-end metrics to the plain pass is the tracing
         overhead. *)
      let traced_raw, _, _ = pass true in
      let traced = summarize traced_raw in
      let out = Filename.concat (Filename.concat ".perfbench" "out") workload in
      ignore (Sys.command (Filename.quote_command "mkdir" [ "-p"; out ]));
      let layers =
        List.map
          (fun (name, unit) ->
            let v =
              match Json.member name traced_raw with Some v -> to_float v | None -> 0.
            in
            (name, v, unit))
          layer_metrics
      in
      write_file (Filename.concat out "layers.json") (to_string (metric_json layers) ^ "\n");
      List.iter
        (fun f ->
          let src = Filename.concat dir f in
          if Sys.file_exists src then Sys.rename src (Filename.concat out f))
        [ "trace.json"; "daemon-trace.json" ];
      let overhead =
        String.concat ", "
          (List.map2
             (fun (name, p, unit) (_, t, _) -> Printf.sprintf "%s %+.6g %s" name (t -. p) unit)
             plain traced)
      in
      let line = Printf.sprintf "tracing overhead (%s, traced - untraced): %s" workload overhead in
      write_file (Filename.concat out "overhead.txt") (line ^ "\n");
      prerr_endline line;
      layers
    end
  in
  print_endline
    (to_string
       (Json.Obj
          [
            ("correct", Json.Bool true);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", metric_json metrics);
          ]))

(* ---- command line ----------------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k && k <> "--traced" ->
      opts ((k, v) :: acc) rest
    | "--traced" :: rest -> opts (("--traced", "1") :: acc) rest
    | [] -> List.rev acc
    | x :: _ -> failwith ("unexpected argument " ^ x)
  in
  let get o k =
    match List.assoc_opt k o with Some v -> v | None -> failwith ("missing " ^ k)
  in
  try
    match args with
    | "job" :: rest ->
      let o = opts [] rest in
      File_job.main ~workload:(get o "--workload") ~dir:(get o "--dir")
        ~reps:(int_of_string (get o "--reps"))
        ~traced:(List.mem_assoc "--traced" o)
        ~out:(get o "--out") ~trace_file:(get o "--trace-file")
    | _ ->
      let o = opts [] args in
      main ~workload:(get o "--workload")
        ~seed:(int_of_string (get o "--seed"))
        ~seconds:(int_of_string (get o "--seconds"))
        ~trace:(get o "--trace" = "1")
        ~cfdclean:(get o "--cfdclean") ~dir:(get o "--work")
  with
  | Check_failed what ->
    prerr_endline ("perfbench: check failed: " ^ what);
    exit 1
  | Failure msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 2
