(* TCP transport for the serving layer: newline-delimited line framing
   over a socket, the same wire protocol the stdio transport speaks.
   The listener side lives here (workers: `suu serve --listen`); the
   connecting side lives with the coordinator's shard client, which
   owns reconnect policy. *)

let default_host = "127.0.0.1"

(* "host:port", ":port" or bare "port"; port 0 asks the kernel for a
   free port (the bound address is announced after bind). *)
let parse_addr text =
  let host, port_text =
    match String.rindex_opt text ':' with
    | None -> (default_host, text)
    | Some i ->
        let h = String.sub text 0 i in
        ( (if h = "" then default_host else h),
          String.sub text (i + 1) (String.length text - i - 1) )
  in
  match int_of_string_opt port_text with
  | Some port when port >= 0 && port <= 65535 -> (
      match Unix.inet_addr_of_string host with
      | addr -> Ok (addr, port)
      | exception Failure _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } ->
              Error (Printf.sprintf "tcp: no address for host %S" host)
          | h -> Ok (h.Unix.h_addr_list.(0), port)
          | exception Not_found ->
              Error (Printf.sprintf "tcp: unknown host %S" host)))
  | _ -> Error (Printf.sprintf "tcp: bad port in address %S" text)

let addr_to_string = function
  | Unix.ADDR_INET (a, p) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | Unix.ADDR_UNIX p -> p

(* Bind + listen; returns the socket and the actual bound address
   (resolving port 0). *)
let listen text =
  match parse_addr text with
  | Error _ as e -> e
  | Ok (addr, port) -> (
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      match
        Unix.bind fd (Unix.ADDR_INET (addr, port));
        Unix.listen fd 16
      with
      | () -> Ok (fd, addr_to_string (Unix.getsockname fd))
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (Printf.sprintf "tcp: cannot listen on %s: %s" text
                   (Unix.error_message e)))

(* --- line-framed connections ------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  (* Bytes read but not yet returned as lines live in [buf.[start, stop)];
     [buf.[start, scanned)] is known to hold no newline, so each byte is
     scanned once however many reads a long line takes. *)
  mutable buf : bytes;
  mutable start : int;
  mutable scanned : int;
  mutable stop : int;
  (* Close exactly once: after {!tear} or {!close} the fd number may be
     recycled by a concurrent dial (in-process tests share one fd
     table), and a second close would kill an innocent socket. *)
  mutable closed : bool;
}

let read_size = 4096

let conn_of_fd fd =
  {
    fd;
    buf = Bytes.create (2 * read_size);
    start = 0;
    scanned = 0;
    stop = 0;
    closed = false;
  }

let take_line c =
  let rec find i =
    if i >= c.stop then None
    else if Bytes.unsafe_get c.buf i = '\n' then Some i
    else find (i + 1)
  in
  match find c.scanned with
  | None ->
      c.scanned <- c.stop;
      None
  | Some i ->
      (* Tolerate CRLF framing from foreign peers. *)
      let e = if i > c.start && Bytes.get c.buf (i - 1) = '\r' then i - 1 else i in
      let line = Bytes.sub_string c.buf c.start (e - c.start) in
      c.start <- i + 1;
      c.scanned <- i + 1;
      Some line

(* Make room for a [read_size] read at [stop]: slide the pending bytes
   to the front while they fill at most half the buffer, else double it
   — either way each byte is copied O(1) times amortised. *)
let reserve c =
  let cap = Bytes.length c.buf in
  if c.stop + read_size > cap then begin
    let live = c.stop - c.start in
    let buf =
      if live + read_size <= cap / 2 then c.buf
      else Bytes.create (max (2 * cap) (live + read_size))
    in
    Bytes.blit c.buf c.start buf 0 live;
    c.buf <- buf;
    c.scanned <- c.scanned - c.start;
    c.stop <- live;
    c.start <- 0
  end

(* One framed line, or None on clean EOF. Read errors (reset, timeout
   when SO_RCVTIMEO is armed) raise Unix_error for the caller's
   reconnect policy to interpret. *)
let rec recv_line c =
  match take_line c with
  | Some line -> Some line
  | None -> (
      reserve c;
      match Unix.read c.fd c.buf c.stop (Bytes.length c.buf - c.stop) with
      | 0 ->
          (* EOF: a trailing unterminated fragment is dropped — the
             protocol is strictly line-framed. *)
          None
      | n ->
          c.stop <- c.stop + n;
          recv_line c
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv_line c)

let send_line c line =
  let payload = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length payload in
  let rec push off =
    if off < len then
      match Unix.write c.fd payload off (len - off) with
      | n -> push (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> push off
  in
  push 0

let shutdown_send c =
  if not c.closed then
    try Unix.shutdown c.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ()

let shutdown_all c =
  if not c.closed then
    try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let tear c =
  (* Abrupt loss: linger 0 turns close into RST where supported, and
     both directions die at once either way. *)
  if not c.closed then begin
    c.closed <- true;
    (try Unix.setsockopt_optint c.fd Unix.SO_LINGER (Some 0)
     with Unix.Unix_error _ -> ());
    (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let close c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* Dial-and-drop: pop a blocked accept so its [stopping] check runs.
   Closing the listener from another thread does not wake accept on
   Linux; a throwaway connection always does. *)
let wake addr_text =
  match parse_addr addr_text with
  | Error _ -> ()
  | Ok (addr, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_INET (addr, port))
       with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

(* --- the worker's accept loop ----------------------------------------- *)

(* A TRANSPORT over one accepted connection, with the connection-level
   fault sites applied on the response path: [Sock_stall] sleeps before
   a write, [Tear] destroys the socket instead of writing. Once the
   socket is dead, sends are dropped and recv reports EOF — the service
   drains as if the client had vanished, which it has. *)
let connection_transport ~(fault : Fault.spec) ~line_base c :
    (module Service.TRANSPORT) =
  (module struct
    let dead = ref false
    let sent = ref 0

    let recv () =
      if !dead then None
      else
        match recv_line c with
        | r -> r
        | exception Unix.Unix_error (_, _, _) ->
            dead := true;
            None

    let send line =
      if not !dead then begin
        let k = line_base + !sent in
        incr sent;
        if Fault.fires fault Fault.Sock_stall ~key:k then
          Unix.sleepf (fault.Fault.sock_stall_ms /. 1000.);
        if Fault.fires fault Fault.Tear ~key:k then begin
          tear c;
          dead := true
        end
        else
          try send_line c line
          with Unix.Unix_error _ | Sys_error _ -> dead := true
      end
  end)

(* Accept connections sequentially and run one service instance per
   connection. [max_conns = 0] loops until [stopping] (the process is
   normally killed by whoever spawned it); response-line fault keys
   continue across connections so a reconnecting client cannot re-draw
   the exact fault schedule that tore its first connection. *)
let serve_connections ?(max_conns = 0) ?(stopping = fun () -> false)
    ~on_report (cfg : Service.config) lsock =
  let conns = ref 0 in
  let lines_out = ref 0 in
  let lost = ref false in
  let rec loop () =
    if (not (stopping ())) && (max_conns = 0 || !conns < max_conns) then begin
      match Unix.accept lsock with
      | fd, _peer when stopping () ->
          (* A wake connection: whoever flipped [stopping] dials once to
             pop the blocked accept (closing the listener from another
             thread does not wake it on Linux). *)
          (try Unix.close fd with Unix.Unix_error _ -> ())
      | fd, _peer ->
          let k = !conns in
          incr conns;
          let c = conn_of_fd fd in
          if Fault.fires cfg.Service.fault Fault.Refuse ~key:k then tear c
          else begin
            let transport =
              connection_transport ~fault:cfg.Service.fault
                ~line_base:!lines_out c
            in
            let report = Service.serve cfg transport in
            lines_out :=
              !lines_out + report.Service.metrics.Metrics.requests;
            close c;
            on_report report
          end;
          loop ()
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
          loop ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
          (* The listener was closed under us — the in-process stop
             signal tests and embedders use. Don't close it again: the
             fd number may already have been recycled. *)
          lost := true
    end
  in
  loop ();
  if not !lost then try Unix.close lsock with Unix.Unix_error _ -> ()
