(* The two serve workloads: a real `cfdclean serve` daemon in its own
   process, driven over HTTP from this one.

   - serve-stream: one l-inc session with checkpoints under a state
     directory; one closed-loop writer streams small batches while one
     open-loop reader alternates session status and relation reads.
   - serve-fanout: two sessions on an in-memory daemon with two ingest
     worker domains, each fed by its own closed-loop writer.

   Every acknowledged tuple is then checked: it is in the relation or
   the quarantine, the relation satisfies Σ, and the relation is byte
   for byte what Inc_repair.repair_inserts ~ordering:Linear gives over
   the same base and stream (split only where the daemon quarantined,
   since a quarantined tuple leaves the relation after its batch). *)

open Dq_relation
open Util
module Csv = Dq_relation.Csv
module Inc_repair = Dq_core.Inc_repair
module Violation = Dq_cfd.Violation
module Cfd_parser = Dq_cfd.Cfd_parser

(* ---- operation accounting ---------------------------------------------- *)

(* Every request is an operation: attempted, then succeeded or failed by
   cause (the HTTP status, "timeout" or "error").  Threads share it. *)
module Ops = struct
  let lock = Mutex.create ()
  let attempted = ref 0
  let failures : (string, int) Hashtbl.t = Hashtbl.create 8

  let note = function
    | Ok _ -> Mutex.protect lock (fun () -> incr attempted)
    | Error cause ->
      Mutex.protect lock (fun () ->
          incr attempted;
          Hashtbl.replace failures cause
            (1 + Option.value ~default:0 (Hashtbl.find_opt failures cause)))

  let failed () = Hashtbl.fold (fun _ n acc -> acc + n) failures 0

  let by_cause () =
    Hashtbl.fold (fun c n l -> (c, Json.Int n) :: l) failures [] |> List.sort compare
end

(* One request, accounted.  [Ok body] only for a 2xx answer. *)
let call ?(timeout = 60.) ~port ~span meth path body =
  let res =
    layer span (fun () ->
        match Http_client.request ~timeout ~port meth path body with
        | Http_client.Status (c, b) when c >= 200 && c < 300 -> Ok b
        | Http_client.Status (c, _) -> Error (string_of_int c)
        | Http_client.Timeout -> Error "timeout"
        | Http_client.Failed _ -> Error "error")
  in
  Ops.note res;
  res

let report_of body =
  match Json.parse body with
  | Ok env -> member "report" env
  | Error msg -> failwith ("response body: " ^ msg)

let must what = function
  | Ok body -> body
  | Error cause -> raise (Check_failed (Printf.sprintf "%s answered %s" what cause))

(* ---- the daemon ---------------------------------------------------------- *)

type daemon = { pid : int; port : int; ready_line : in_channel; log : string }

let spawn ~cfdclean ~log args =
  let r, w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let pid =
    Unix.create_process cfdclean
      (Array.of_list (cfdclean :: "serve" :: "--port" :: "0" :: args))
      Unix.stdin w err
  in
  Unix.close w;
  Unix.close err;
  let ic = Unix.in_channel_of_descr r in
  match input_line ic with
  | line ->
    let port =
      Scanf.sscanf line "cfdclean serve: listening on http://127.0.0.1:%d" Fun.id
    in
    { pid; port; ready_line = ic; log }
  | exception End_of_file ->
    ignore (Unix.waitpid [] pid);
    failwith ("cfdclean serve did not start: " ^ read_file log)

(* SIGTERM asks for a graceful drain; the daemon must exit 0. *)
let stop d =
  Unix.kill d.pid Sys.sigterm;
  let _, status = Unix.waitpid [] d.pid in
  close_in_noerr d.ready_line;
  check
    ("cfdclean serve drains and exits 0 on SIGTERM: " ^ read_file d.log)
    (status = Unix.WEXITED 0)

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  close_in_noerr d.ready_line

(* ---- sessions -------------------------------------------------------------- *)

type outcome = { tid : int; status : string; quarantined : bool }

let outcomes_of body =
  match member "outcomes" (report_of body) with
  | Json.List l ->
    List.map
      (fun o ->
        {
          tid = to_int (member "tid" o);
          status = (match member "status" o with Json.String st -> st | _ -> "");
          quarantined = member "status" o = Json.String "quarantined";
        })
      l
  | _ -> failwith "ingest answer without outcomes"

let base_batch = 200

(* Create a session and load the clean base, which must join unchanged. *)
let create_session ~port ~name (s : Gen.stream) =
  let body =
    must "session create"
      (call ~port ~span:"http.post_sessions" "POST" "/v1/sessions"
         (Gen.create_body ~name s))
  in
  let sid =
    match member "id" (report_of body) with
    | Json.String id -> id
    | _ -> failwith "session id"
  in
  List.iter
    (fun rows ->
      let answer =
        must "base load"
          (call ~port ~span:"http.post_tuples"
             "POST" ("/v1/sessions/" ^ sid ^ "/tuples") (Gen.batch_body rows))
      in
      check "the clean base joins unchanged"
        (List.for_all (fun o -> o.status = "clean") (outcomes_of answer)))
    (Gen.chunks base_batch s.base);
  sid

(* ---- the measured phase ------------------------------------------------------ *)

type batch = {
  rows : Value.t array list;
  first : int;  (** index of the batch's first row in the stream *)
  latency : float;
  result : outcome list option;  (** [None] when the request failed *)
}

(* A closed-loop writer: the next batch goes out when the previous one
   is answered. *)
let write_stream ~port ~sid ~batch_rows (s : Gen.stream) =
  let path = "/v1/sessions/" ^ sid ^ "/tuples" in
  List.mapi
    (fun i rows ->
      let t0 = now () in
      let res = call ~port ~span:"http.post_tuples" "POST" path (Gen.batch_body rows) in
      let latency = now () -. t0 in
      { rows; first = i * batch_rows; latency; result = Result.to_option (Result.map outcomes_of res) })
    (Gen.chunks batch_rows s.rows)

type read = { route : string; due : float; started : float; finished : float; ok : bool }

(* An open-loop reader: read [k] is due [k * period] after [t0] whether
   or not earlier reads have been answered, and its latency counts from
   when it was due. *)
let read_loop ~port ~sid ~period ~t0 ~stop =
  let reads = ref [] in
  let rec go k =
    if not (Atomic.get stop) then begin
      let due = t0 +. (float_of_int k *. period) in
      let wait = due -. now () in
      if wait > 0. then Thread.delay wait;
      if not (Atomic.get stop) then begin
        let route, path, span =
          if k mod 2 = 0 then ("get_session", "/v1/sessions/" ^ sid, "http.get_session")
          else ("get_relation", "/v1/sessions/" ^ sid ^ "/relation", "http.get_relation")
        in
        let started = now () in
        let res = call ~port ~span "GET" path "" in
        reads := { route; due; started; finished = now (); ok = Result.is_ok res } :: !reads
      end;
      go (k + 1)
    end
  in
  go 0;
  List.rev !reads

(* ---- checks --------------------------------------------------------------- *)

let nulled ~submitted ~repaired =
  let arity = Tuple.arity submitted in
  List.filter
    (fun p ->
      Value.is_null (Tuple.get repaired p) && not (Value.is_null (Tuple.get submitted p)))
    (List.init arity Fun.id)

(* The values the daemon parsed from a batch body. *)
let as_sent rows =
  match Json.parse (Gen.batch_body rows) with
  | Ok j -> (
    match member "tuples" j with
    | Json.List l ->
      List.map
        (function
          | Json.List vs ->
            Array.of_list
              (List.map
                 (function
                   | Json.Null -> Value.Null
                   | Json.Int n -> Value.Int n
                   | Json.Float f -> Value.Float f
                   | Json.String s -> Value.String s
                   | _ -> failwith "non-scalar value")
                 vs)
          | _ -> failwith "tuple")
        l
    | _ -> failwith "tuples")
  | Error m -> failwith m

type session_result = {
  relation : Relation.t;  (** the oracle's relation, equal to the daemon's *)
  stream : (int * int) list;  (** tid and stream position of each acked tuple *)
}

(* Replay the acknowledged batches through one repair_inserts call per
   quarantine-free run of batches and compare with what the daemon
   holds.  A failed batch commits nothing and is left out.  Tids are the
   daemon's: base rows 1..n, then the acknowledged tuples in order. *)
let verify ~name ~(s : Gen.stream) ~batches ~exported ~quarantined_tids =
  let schema = Schema.make ~name s.attributes in
  let sigma =
    match Cfd_parser.parse_string s.rules with
    | Ok tabs -> Cfd_parser.resolve schema tabs
    | Error _ -> failwith "rules"
  in
  let rel = Relation.create schema in
  List.iteri (fun i vs -> Relation.add rel (Tuple.create ~tid:(i + 1) vs)) (as_sent s.base);
  let next_tid = ref (List.length s.base + 1) in
  let acked = List.filter (fun b -> b.result <> None) batches in
  let cur = ref rel and pending = ref [] and quarantine = ref [] and stream = ref [] in
  let n = List.length acked in
  List.iteri
    (fun i b ->
      let outcomes = Option.get b.result in
      let tuples =
        List.map2
          (fun o vs -> Tuple.create ~tid:o.tid vs)
          outcomes (as_sent b.rows)
      in
      List.iteri
        (fun j o ->
          check (name ^ ": tids follow the stream order") (o.tid = !next_tid);
          stream := (o.tid, b.first + j) :: !stream;
          incr next_tid)
        outcomes;
      pending := !pending @ tuples;
      let q = List.filter_map (fun o -> if o.quarantined then Some o.tid else None) outcomes in
      if q <> [] || i = n - 1 then begin
        match
          Inc_repair.repair_inserts ~ordering:Inc_repair.Linear !cur !pending sigma
        with
        | Error e -> failwith (Dq_error.to_string e)
        | Ok ((r, _), _) ->
          let held =
            List.filter
              (fun t -> nulled ~submitted:t ~repaired:(Relation.find_exn r (Tuple.tid t)) <> [])
              !pending
          in
          check
            (name ^ ": the daemon quarantined exactly the tuples one-shot repair can only null")
            (List.map Tuple.tid held = q);
          List.iter (fun t -> ignore (Relation.delete r (Tuple.tid t))) held;
          quarantine := !quarantine @ List.map Tuple.tid held;
          cur := r;
          pending := []
      end)
    acked;
  check (name ^ ": the quarantine holds exactly the quarantined tuples")
    (!quarantine = quarantined_tids);
  check (name ^ ": the relation is byte-identical to one-shot repair_inserts")
    (String.equal (Csv.save_string !cur) exported);
  check (name ^ ": the relation satisfies sigma")
    (Violation.satisfies (Csv.load_string exported) sigma);
  check (name ^ ": every acknowledged tuple is in the relation or the quarantine")
    (Relation.cardinality !cur + List.length !quarantine
    = List.length s.base + List.length !stream);
  { relation = !cur; stream = List.rev !stream }

(* Quality of the stream's repair against Dopt; a quarantined tuple
   counts as left as submitted. *)
let quality ~(s : Gen.stream) r =
  let schema = Relation.schema r.relation in
  let dopt = Relation.create schema
  and dirty = Relation.create schema
  and repair = Relation.create schema in
  let clean = Array.of_list s.clean_rows and sent = Array.of_list (as_sent s.rows) in
  List.iter
    (fun (tid, i) ->
      Relation.add dopt (Tuple.create ~tid clean.(i));
      Relation.add dirty (Tuple.create ~tid sent.(i));
      Relation.add repair
        (match Relation.find r.relation tid with
        | Some t -> Tuple.copy t
        | None -> Tuple.create ~tid sent.(i)))
    r.stream;
  ( Dq_workload.Metrics.evaluate ~dopt ~dirty ~repair,
    Dq_core.Cost.repair_cost ~original:dirty ~repair )

(* ---- Prometheus scrape --------------------------------------------------- *)

(* The samples of a /v1/metrics exposition: name with labels -> value. *)
let parse_scrape text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | Some i -> (
             match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
             | Some v -> Some (String.sub line 0 i, v)
             | None -> None)
           | None -> None)

let sample scrape name = Option.value ~default:0. (List.assoc_opt name scrape)

let delta before after name = sample after name -. sample before name

(* Server-side p50 of one route from the request histogram between two
   scrapes, interpolated within the bucket as histogram_quantile does. *)
let route_p50 before after route =
  let prefix = "cfdclean_serve_request_seconds_bucket{" in
  let suffix = Printf.sprintf ",route=\"%s\"}" route in
  let buckets =
    List.filter_map
      (fun (k, v) ->
        if String.starts_with ~prefix k && String.ends_with ~suffix k then
          try
            Scanf.sscanf
              (String.sub k (String.length prefix) (String.length k - String.length prefix))
              "le=\"%[^\"]\"" (fun le ->
                let le = if le = "+Inf" then infinity else float_of_string le in
                Some (le, v -. sample before k))
          with Scanf.Scan_failure _ | End_of_file -> None
        else None)
      after
    |> List.sort compare
  in
  match List.rev buckets with
  | (_, total) :: _ when total > 0. ->
    let target = total /. 2. in
    let rec find lo_bound lo_count = function
      | (le, c) :: rest ->
        if c >= target then
          if le = infinity then lo_bound
          else lo_bound +. ((le -. lo_bound) *. (target -. lo_count) /. max 1e-12 (c -. lo_count))
        else find le c rest
      | [] -> lo_bound
    in
    find 0. 0. buckets
  | _ -> 0.

(* ---- the workloads -------------------------------------------------------- *)

type spec = {
  sessions : int;
  batch_rows : int;
  state : bool;  (** checkpoint under a state directory *)
  workers : int;  (** --ingest-workers; 0 leaves the flag off *)
  read_period : float option;  (** the open-loop reader's period, if any *)
}

let stream_spec =
  { sessions = 1; batch_rows = 5; state = true; workers = 0; read_period = Some 0.1 }

let fanout_spec =
  { sessions = 2; batch_rows = 10; state = false; workers = 2; read_period = None }

let base_rows = 3000

(* Telemetry off for measured runs (no logs, no metrics); traced runs
   turn metrics on and dump the daemon's spans at exit. *)
let daemon_args ~dir ~traced ~rep spec =
  (if spec.state then [ "--state-dir"; Filename.concat dir (Printf.sprintf "state-%d" rep) ]
   else [])
  @ (if spec.workers > 0 then [ "--ingest-workers"; string_of_int spec.workers ] else [])
  @ [ "--no-log" ]
  @
  if traced then [ "--trace"; Filename.concat dir "daemon-trace.json" ]
  else [ "--no-metrics" ]

(* Set-up: daemon spawn to ready line, session creation, base load. *)
let setup ~cfdclean ~dir ~traced ~rep spec streams =
  let t0 = now () in
  let d =
    spawn ~cfdclean
      ~log:(Filename.concat dir (Printf.sprintf "daemon-%d.log" rep))
      (daemon_args ~dir ~traced ~rep spec)
  in
  match
    List.mapi
      (fun i s -> create_session ~port:d.port ~name:(Printf.sprintf "orders%d" i) s)
      streams
  with
  | sids -> (d, sids, now () -. t0)
  | exception e ->
    kill d;
    raise e

let scrape ~traced port =
  if traced then
    parse_scrape
      (must "metrics scrape" (call ~port ~span:"http.get_metrics" "GET" "/v1/metrics" ""))
  else []

(* Chrome trace events written by the daemon, as Trace events. *)
let daemon_events path =
  match member "traceEvents" (read_json path) with
  | Json.List l ->
    List.filter_map
      (fun e ->
        match member "ph" e with
        | Json.String (("B" | "E") as ph) ->
          Some
            {
              Trace.ph = (if ph = "B" then `B else `E);
              name = (match member "name" e with Json.String s -> s | _ -> "");
              cat = "";
              ts = to_float (member "ts" e);
              tid = to_int (member "tid" e);
              path = [];
              args = [];
            }
        | _ -> None)
      l
  | _ -> []

let p50 = function [] -> 0. | l -> percentile 0.5 l

let p95 = function [] -> 0. | l -> percentile 0.95 l

let run ~cfdclean ~dir ~seed ~stream_rows ~setups ~traced spec =
  let streams =
    List.init spec.sessions (fun i ->
        Gen.stream ~base:base_rows ~rows:stream_rows ~seed:(Gen.sub_seed seed i))
  in
  (* Several set-ups for a steady median; the last daemon is measured. *)
  let rec set_up rep acc =
    let d, sids, t = setup ~cfdclean ~dir ~traced ~rep spec streams in
    if rep + 1 >= setups then (d, sids, List.rev (t :: acc))
    else begin
      stop d;
      set_up (rep + 1) (t :: acc)
    end
  in
  let d, sids, setup_ts = set_up 0 [] in
  let measured () =
    let port = d.port in
    let before = scrape ~traced port in
    let t0 = now () in
    let stop_reads = Atomic.make false in
    let reads = ref [] in
    let reader =
      Option.map
        (fun period ->
          Thread.create
            (fun sid -> reads := read_loop ~port ~sid ~period ~t0 ~stop:stop_reads)
            (List.hd sids))
        spec.read_period
    in
    let results = Array.make spec.sessions [] in
    let writers =
      List.mapi
        (fun i (sid, s) ->
          Thread.create
            (fun () -> results.(i) <- write_stream ~port ~sid ~batch_rows:spec.batch_rows s)
            ())
        (List.combine sids streams)
    in
    List.iter Thread.join writers;
    let wall = now () -. t0 in
    Atomic.set stop_reads true;
    Option.iter Thread.join reader;
    let after = scrape ~traced port in
    let finals =
      List.map
        (fun sid ->
          let exported =
            must "relation export"
              (call ~port ~span:"http.get_relation" "GET" ("/v1/sessions/" ^ sid ^ "/relation") "")
          in
          let q =
            must "quarantine listing"
              (call ~port ~span:"http.get_quarantine" "GET"
                 ("/v1/sessions/" ^ sid ^ "/quarantine") "")
          in
          let qtids =
            match member "entries" (report_of q) with
            | Json.List l -> List.map (fun e -> to_int (member "tid" e)) l
            | _ -> []
          in
          (exported, qtids))
        sids
    in
    let peak = peak_rss_mb d.pid in
    (Array.to_list results, !reads, wall, before, after, finals, peak)
  in
  let batches, reads, wall, before, after, finals, peak =
    match measured () with
    | r ->
      stop d;
      r
    | exception e ->
      kill d;
      raise e
  in
  (* Checks, then quality. *)
  let verified =
    List.mapi
      (fun i ((s, b), (exported, qtids)) ->
        verify ~name:(Printf.sprintf "orders%d" i) ~s ~batches:b ~exported ~quarantined_tids:qtids)
      (List.combine (List.combine streams batches) finals)
  in
  let quality = List.map2 (fun s r -> quality ~s r) streams verified in
  let counts = List.map fst quality in
  let total f = List.fold_left (fun a m -> a + f m) 0 counts in
  let ratio num den = if den = 0 then 1.0 else float_of_int num /. float_of_int den in
  let all_batches = List.concat batches in
  let ingest = List.map (fun b -> b.latency) all_batches in
  let acked = List.fold_left (fun a r -> a + List.length r.stream) 0 verified in
  let read_lat = List.map (fun r -> r.finished -. r.due) reads in
  let client route =
    p50 (List.filter_map (fun r -> if r.route = route then Some (r.finished -. r.started) else None) reads)
  in
  let n_batches = float_of_int (max 1 (List.length all_batches)) in
  let server route = route_p50 before after route in
  let checkpoints = delta before after "cfdclean_serve_checkpoint_seconds_seconds_count" in
  let per_checkpoint name = if checkpoints > 0. then delta before after name /. checkpoints else 0. in
  if traced then Trace.write (Filename.concat dir "trace.json");
  let tupleresolve =
    if traced then span_self (span_times (daemon_events (Filename.concat dir "daemon-trace.json"))) "tupleresolve"
    else 0.
  in
  let word = float_of_int (Sys.word_size / 8) in
  Json.Obj
    [
      ("setup_s", Json.List (List.map (fun t -> Json.Float t) setup_ts));
      ("job_s", Json.List (List.map (fun t -> Json.Float t) ingest));
      ("tuples", Json.Int acked);
      ("wall_s", Json.Float wall);
      ("peak_rss_mb", Json.Float peak);
      ("quality.precision", Json.Float (ratio (total (fun m -> m.correct_changes)) (total (fun m -> m.changes))));
      ("quality.recall", Json.Float (ratio (total (fun m -> m.corrected_noises)) (total (fun m -> m.noises))));
      ("quality.repair_cost", Json.Float (sum (List.map snd quality)));
      ("serve.ingest_p50_s", Json.Float (p50 ingest));
      ("serve.ingest_p95_s", Json.Float (p95 ingest));
      ("serve.ingest_samples", Json.Float (float_of_int (List.length ingest)));
      ("serve.read_p50_s", Json.Float (p50 read_lat));
      ("serve.read_p95_s", Json.Float (p95 read_lat));
      ("serve.read_samples", Json.Float (float_of_int (List.length reads)));
      ("loadgen.late_p95_s", Json.Float (p95 (List.map (fun r -> r.started -. r.due) reads)));
      ("http.post_tuples.client_s", Json.Float (p50 ingest));
      ("http.get_session.client_s", Json.Float (client "get_session"));
      ("http.get_relation.client_s", Json.Float (client "get_relation"));
      ("serve.post_tuples.server_s", Json.Float (server "POST /v1/sessions/:id/tuples"));
      ("serve.get_session.server_s", Json.Float (server "GET /v1/sessions/:id"));
      ("serve.get_relation.server_s", Json.Float (server "GET /v1/sessions/:id/relation"));
      ( "inc_repair.resolve_s",
        Json.Float (delta before after "cfdclean_inc_phase_resolve_seconds_sum" /. n_batches) );
      ("inc_repair.resolves", Json.Float (delta before after "cfdclean_inc_resolves_total" /. n_batches));
      ("tuple_resolve.self_s", Json.Float (tupleresolve /. n_batches));
      ("store.checkpoint_s", Json.Float (per_checkpoint "cfdclean_serve_checkpoint_seconds_seconds_sum"));
      ("store.checkpoint_bytes", Json.Float (per_checkpoint "cfdclean_serve_checkpoint_bytes_sum"));
      ( "workers.overlap",
        Json.Float
          (delta before after
             "cfdclean_serve_request_seconds_sum{route=\"POST /v1/sessions/:id/tuples\"}"
          /. wall) );
      ("gc.minor_words", Json.Float (sample after "cfdclean_gc_minor_words"));
      ("gc.major_words", Json.Float (sample after "cfdclean_gc_major_words"));
      ("gc.heap_mb", Json.Float (sample after "cfdclean_gc_heap_words" *. word /. 1048576.));
    ]
