(* Shared helpers: clocks, order statistics, layer spans, self times,
   peak memory and the JSON the benchmark prints. *)

module Trace = Dq_obs.Trace
module Json = Dq_obs.Json

let now = Unix.gettimeofday

(* [timed f] runs [f] and returns its result with the wall seconds it
   took. *)
let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* A span around one call into a layer, named after the layer's module.
   Spans cost one atomic read when tracing is off. *)
let layer name f = Trace.span ~cat:"perfbench" name f

(* Nearest-rank percentile of a non-empty sample, [p] in (0, 1]. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> invalid_arg "percentile: empty sample"
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* The median of an even sample is the mean of the two middle values. *)
let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "median: empty sample"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.

(* Peak resident set (VmHWM) of a process in MiB, from its status file. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status"
    else Printf.sprintf "/proc/%d/status" pid
  in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* Self time per span name: a span's duration minus the part of it its
   child spans on the same domain lane cover.  Returns (name, total
   seconds, self seconds, count), sorted by name. *)
let span_times (events : Trace.event list) =
  let acc : (string, float * float * int) Hashtbl.t = Hashtbl.create 64 in
  let stacks : (int, (string * float * float ref) list) Hashtbl.t =
    Hashtbl.create 4
  in
  List.iter
    (fun (e : Trace.event) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks e.tid) in
      match e.ph with
      | `B -> Hashtbl.replace stacks e.tid ((e.name, e.ts, ref 0.) :: stack)
      | `E -> (
        match stack with
        | (name, t0, children) :: rest ->
          let dur = (e.ts -. t0) /. 1e6 in
          let self = dur -. !children in
          (match rest with
          | (_, _, parent_children) :: _ ->
            parent_children := !parent_children +. dur
          | [] -> ());
          let total, self_acc, n =
            Option.value ~default:(0., 0., 0) (Hashtbl.find_opt acc name)
          in
          Hashtbl.replace acc name (total +. dur, self_acc +. self, n + 1);
          Hashtbl.replace stacks e.tid rest
        | [] -> ()))
    events;
  Hashtbl.fold (fun name (t, s, n) l -> (name, t, s, n) :: l) acc []
  |> List.sort compare

let span_total times name =
  List.fold_left
    (fun a (n, t, _, _) -> if n = name then a +. t else a)
    0. times

let span_self times name =
  List.fold_left
    (fun a (n, _, s, _) -> if n = name then a +. s else a)
    0. times

(* ---- output ------------------------------------------------------------ *)

(* Floats keep every digit ("%.17g"); the repo's Json printer rounds to
   12 significant digits, which is right for reports but not for
   measurements. *)
let rec to_string = function
  | Json.Float f when Float.is_finite f ->
    let s = Printf.sprintf "%.17g" f in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
  | Json.List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Json.Obj fields ->
    "{"
    ^ String.concat ", "
        (List.map
           (fun (k, v) -> Printf.sprintf "\"%s\": %s" (Json.escape k) (to_string v))
           fields)
    ^ "}"
  | j -> String.trim (Json.to_string ~minify:true j)

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Parse a JSON value from a file written by another benchmark process. *)
let read_json path =
  match Json.parse (read_file path) with
  | Ok j -> j
  | Error msg -> failwith (path ^ ": " ^ msg)

let member name j =
  match Json.member name j with
  | Some v -> v
  | None -> failwith ("missing field " ^ name)

let to_float = function
  | Json.Float f -> f
  | Json.Int n -> float_of_int n
  | j -> failwith ("not a number: " ^ to_string j)

let to_int = function Json.Int n -> n | j -> failwith ("not an int: " ^ to_string j)

(* A correctness check.  A failed check fails the run: it is reported on
   stderr and the benchmark exits non-zero without a result line. *)
exception Check_failed of string

let check what ok = if not ok then raise (Check_failed what)
