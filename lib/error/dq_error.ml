module Json = Dq_obs.Json

type t =
  | Io of string
  | Parse of { path : string; line : int; col : int; message : string }
  | Invalid_input of string
  | Invalid_config of string
  | Lint_gated of { path : string; errors : int; hint : string }
  | Analyze_gated of { path : string; cycles : int; hint : string }
  | Unsatisfiable
  | Would_overwrite of string
  | Deadline_exceeded
  | Fault_injected of string
  | Unknown_engine of { name : string; known : string list }
  | Engine_unsupported of { engine : string; reason : string }
  | No_such_session of string
  | Queue_full of { session : string; depth : int }
  | Unavailable of string
  | Breaker_open of { session : string; faults : int }
  | Internal of string

let to_string = function
  | Io msg -> msg
  | Parse { path; line; col; message } ->
    Printf.sprintf "%s: line %d, column %d: %s" path line col message
  | Invalid_input msg -> msg
  | Invalid_config msg -> msg
  | Lint_gated { path; errors; hint } ->
    Printf.sprintf "%s: ruleset has %d lint error%s; %s" path errors
      (if errors = 1 then "" else "s")
      hint
  | Analyze_gated { path; cycles; hint } ->
    Printf.sprintf "%s: ruleset has %d dependency cycle%s; %s" path cycles
      (if cycles = 1 then "" else "s")
      hint
  | Unsatisfiable -> "the CFD set is unsatisfiable; no repair exists"
  | Would_overwrite path ->
    Printf.sprintf
      "refusing to overwrite the input file %s; pass --in-place to allow it"
      path
  | Deadline_exceeded ->
    "deadline exceeded before any usable result was produced"
  | Fault_injected site ->
    Printf.sprintf "fault injected at site %s (armed by a fault plan)" site
  | Unknown_engine { name; known } ->
    Printf.sprintf "unknown repair engine %S (known engines: %s)" name
      (String.concat ", " known)
  | Engine_unsupported { engine; reason } ->
    Printf.sprintf "the %s engine cannot repair this ruleset: %s" engine reason
  | No_such_session id -> Printf.sprintf "no such session: %s" id
  | Queue_full { session; depth } ->
    Printf.sprintf
      "session %s ingest queue is full (depth %d); retry after a short backoff"
      session depth
  | Unavailable msg -> msg
  | Breaker_open { session; faults } ->
    Printf.sprintf
      "session %s is quarantined after %d consecutive engine fault%s; POST \
       /v1/sessions/%s/resume to re-enable it"
      session faults
      (if faults = 1 then "" else "s")
      session
  | Internal msg -> Printf.sprintf "internal error: %s" msg

let kind = function
  | Io _ -> "io"
  | Parse _ -> "parse"
  | Invalid_input _ -> "invalid-input"
  | Invalid_config _ -> "invalid-config"
  | Lint_gated _ -> "lint-gated"
  | Analyze_gated _ -> "analyze-gated"
  | Unsatisfiable -> "unsatisfiable"
  | Would_overwrite _ -> "would-overwrite"
  | Deadline_exceeded -> "deadline-exceeded"
  | Fault_injected _ -> "fault-injected"
  | Unknown_engine _ -> "unknown-engine"
  | Engine_unsupported _ -> "engine-unsupported"
  | No_such_session _ -> "no-such-session"
  | Queue_full _ -> "queue-full"
  | Unavailable _ -> "unavailable"
  | Breaker_open _ -> "engine-failed"
  | Internal _ -> "internal"

let to_json e =
  let base =
    [
      ("kind", Json.String (kind e)); ("message", Json.String (to_string e));
    ]
  in
  match e with
  | Parse { path; line; col; _ } ->
    Json.Obj
      (base
      @ [
          ("path", Json.String path);
          ("line", Json.Int line);
          ("col", Json.Int col);
        ])
  | Lint_gated { path; errors; _ } ->
    Json.Obj
      (base @ [ ("path", Json.String path); ("errors", Json.Int errors) ])
  | Analyze_gated { path; cycles; _ } ->
    Json.Obj
      (base @ [ ("path", Json.String path); ("cycles", Json.Int cycles) ])
  | Fault_injected site -> Json.Obj (base @ [ ("site", Json.String site) ])
  | Unknown_engine { name; known } ->
    Json.Obj
      (base
      @ [
          ("name", Json.String name);
          ("known", Json.List (List.map (fun n -> Json.String n) known));
        ])
  | Engine_unsupported { engine; reason } ->
    Json.Obj
      (base
      @ [ ("engine", Json.String engine); ("reason", Json.String reason) ])
  | Queue_full { session; depth } ->
    Json.Obj
      (base @ [ ("session", Json.String session); ("depth", Json.Int depth) ])
  | Breaker_open { session; faults } ->
    Json.Obj
      (base @ [ ("session", Json.String session); ("faults", Json.Int faults) ])
  | _ -> Json.Obj base

module Exit = struct
  let ok = 0

  let dirty = 1

  let usage = 2

  let lint_gated = 3

  let deadline = 4
end

let exit_code = function
  | Unsatisfiable -> Exit.dirty
  | Lint_gated _ | Analyze_gated _ -> Exit.lint_gated
  | Deadline_exceeded -> Exit.deadline
  | Io _ | Parse _ | Invalid_input _ | Invalid_config _ | Would_overwrite _
  | Fault_injected _ | Unknown_engine _ | Engine_unsupported _
  | No_such_session _ | Queue_full _ | Unavailable _ | Breaker_open _
  | Internal _ ->
    Exit.usage
