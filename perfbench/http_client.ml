(* A one-request-per-connection HTTP/1.1 client for the serve workloads
   (the daemon's default: no keep-alive).  Answers with fixed-length or
   chunked bodies are both decoded. *)

type outcome =
  | Status of int * string  (** status code and decoded body *)
  | Timeout
  | Failed of string  (** connection refused, reset, or bad framing *)

let dechunk body =
  let out = Buffer.create (String.length body) in
  let rec go pos =
    match String.index_from_opt body pos '\r' with
    | None -> failwith "chunked body: missing size line"
    | Some eol ->
      let size_field = String.sub body pos (eol - pos) in
      let size_field =
        match String.index_opt size_field ';' with
        | Some i -> String.sub size_field 0 i
        | None -> size_field
      in
      let size = int_of_string ("0x" ^ String.trim size_field) in
      if size > 0 then begin
        Buffer.add_string out (String.sub body (eol + 2) size);
        go (eol + 2 + size + 2)
      end
  in
  go 0;
  Buffer.contents out

let parse_response raw =
  let rec head_end i =
    if i + 3 >= String.length raw then None
    else if String.sub raw i 4 = "\r\n\r\n" then Some i
    else head_end (i + 1)
  in
  match head_end 0 with
  | None -> Failed "response head not terminated"
  | Some i -> (
    let head = String.sub raw 0 i in
    let body = String.sub raw (i + 4) (String.length raw - i - 4) in
    let lines = String.split_on_char '\n' head |> List.map String.trim in
    let status =
      match lines with
      | first :: _ -> (
        match String.split_on_char ' ' first with
        | _ :: code :: _ -> int_of_string_opt code
        | _ -> None)
      | [] -> None
    in
    let chunked =
      List.exists (fun l -> String.lowercase_ascii l = "transfer-encoding: chunked") lines
    in
    match status with
    | None -> Failed ("bad status line in " ^ String.escaped head)
    | Some code -> (
      match if chunked then dechunk body else body with
      | body -> Status (code, body)
      | exception (Failure msg | Invalid_argument msg) -> Failed msg))

(* Send one request and read the answer to EOF.  [timeout] bounds every
   socket read and write. *)
let request ?(timeout = 60.) ~port meth path body =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout;
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let req =
          Printf.sprintf
            "%s %s HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-length: %d\r\n\r\n%s"
            meth path (String.length body) body
        in
        let rec send off =
          if off < String.length req then
            send (off + Unix.write_substring fd req off (String.length req - off))
        in
        send 0;
        let buf = Bytes.create 65536 in
        let out = Buffer.create 4096 in
        let rec drain () =
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes out buf 0 n;
            drain ()
        in
        drain ();
        parse_response (Buffer.contents out)
      with
      | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> Timeout
      | Unix.Unix_error (e, fn, _) -> Failed (fn ^ ": " ^ Unix.error_message e))
