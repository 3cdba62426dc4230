type context = string list
(* Innermost-first stack of enclosing span names for the current thread. *)

type event = {
  ph : [ `B | `E ];
  name : string;
  cat : string;
  ts : float;
  tid : int;
  path : string list;
  args : (string * Json.t) list;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

(* Timestamp origin, set when collection starts so traces begin near 0. *)
let epoch = Atomic.make 0.0
let now_us () = (Unix.gettimeofday () -. Atomic.get epoch) *. 1e6

(* Events are appended under a mutex in real chronological order, so the
   per-thread subsequence is well-nested by construction — no timestamp
   sorting (and its zero-duration tie-break hazards) needed on output. *)
let lock = Mutex.create ()
let buf : event list ref = ref []

let push ev =
  Mutex.lock lock;
  buf := ev :: !buf;
  Mutex.unlock lock

let clear () =
  Mutex.lock lock;
  buf := [];
  Mutex.unlock lock;
  Atomic.set epoch (Unix.gettimeofday ())

let set_enabled b =
  if b && not (Atomic.get enabled_flag) then
    Atomic.set epoch (Unix.gettimeofday ());
  Atomic.set enabled_flag b

(* Per-thread span stacks, keyed by systhread id (unique across domains).
   Serve's request handlers are systhreads sharing one domain, so a
   per-domain stack would nest one handler's spans inside another's.
   Fresh threads and worker domains start empty unless the pool installs a
   submitter context via [with_context]; a thread with an empty stack has
   no entry. *)
let stacks : (int, string list) Hashtbl.t = Hashtbl.create 16
let stacks_lock = Mutex.create ()

let self_id () = Thread.id (Thread.self ())

let get_stack id =
  Mutex.protect stacks_lock (fun () ->
      Option.value (Hashtbl.find_opt stacks id) ~default:[])

let set_stack id stack =
  Mutex.protect stacks_lock (fun () ->
      match stack with
      | [] -> Hashtbl.remove stacks id
      | _ -> Hashtbl.replace stacks id stack)

let current_context () = get_stack (self_id ())

let with_context ctx f =
  let id = self_id () in
  let saved = get_stack id in
  set_stack id ctx;
  Fun.protect ~finally:(fun () -> set_stack id saved) f

let span ?(cat = "span") ?args name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let tid = self_id () in
    let stack = get_stack tid in
    let path = List.rev (name :: stack) in
    let args = match args with None -> [] | Some thunk -> thunk () in
    set_stack tid (name :: stack);
    push { ph = `B; name; cat; ts = now_us (); tid; path; args };
    Fun.protect
      ~finally:(fun () ->
        push { ph = `E; name; cat; ts = now_us (); tid; path; args = [] };
        set_stack tid stack)
      f
  end

let events () =
  Mutex.lock lock;
  let evs = List.rev !buf in
  Mutex.unlock lock;
  evs

let pid = lazy (Unix.getpid ())

let event_json ev =
  let base =
    [
      ("cat", Json.String ev.cat);
      ("name", Json.String ev.name);
      ("ph", Json.String (match ev.ph with `B -> "B" | `E -> "E"));
      ("ts", Json.Float ev.ts);
      ("pid", Json.Int (Lazy.force pid));
      ("tid", Json.Int ev.tid);
    ]
  in
  Json.Obj (match ev.args with [] -> base | args -> base @ [ ("args", Json.Obj args) ])

let to_json () =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event_json (events ())));
      ("displayTimeUnit", Json.String "ms");
    ]

let write path =
  Dq_fault.Atomic_io.write_file path
    (Json.to_string ~minify:true (to_json ()))
