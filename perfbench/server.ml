(* One server process under test and the single connection the
   benchmark drives it over: the child's stdin/stdout pipes, or a TCP
   socket to the address it announces. *)

type exit_info = { code : int; cpu_s : float; maxrss_kb : int }

external wait4 : int -> int * float * int = "perfbench_wait4"

type t = {
  pid : int;
  ic : in_channel;  (** answers *)
  oc : out_channel;  (** requests *)
  sock : Unix.file_descr option;  (** the TCP connection, for half-close *)
  announce : in_channel option;  (** the TCP server's stdout *)
}

(* Servers spawned and not yet reaped, so a run that fails half-way can
   still stop and wait for every process it started. *)
let live : t list ref = ref []

let spawn ~exe ~log ~tcp args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) in_r out_w err
  in
  List.iter Unix.close [ in_r; out_w; err ];
  let stdout_ic = Unix.in_channel_of_descr out_r in
  let t =
    if not tcp then
      {
        pid;
        ic = stdout_ic;
        oc = Unix.out_channel_of_descr in_w;
        sock = None;
        announce = None;
      }
    else begin
      Unix.close in_w;
      let line = input_line stdout_ic in
      let prefix = "listening " in
      let np = String.length prefix in
      if String.length line <= np || String.sub line 0 np <> prefix then
        failwith ("unexpected announce: " ^ line);
      match
        Suu_service.Tcp.parse_addr (String.sub line np (String.length line - np))
      with
      | Error msg -> failwith msg
      | Ok (addr, port) ->
          let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_INET (addr, port));
          Unix.setsockopt fd Unix.TCP_NODELAY true;
          {
            pid;
            ic = Unix.in_channel_of_descr fd;
            oc = Unix.out_channel_of_descr fd;
            sock = Some fd;
            announce = Some stdout_ic;
          }
      end
  in
  live := t :: !live;
  t

let send t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc

let recv t = input_line t.ic

(* End of input, then reap: the server drains, exits, and [wait4] hands
   back the CPU time and peak RSS of its whole process tree — the
   coordinator's shards included, since it reaps them before exiting. *)
let close t =
  live := List.filter (fun u -> u != t) !live;
  (match t.sock with
  | None -> close_out t.oc
  | Some fd ->
      flush t.oc;
      Unix.shutdown fd Unix.SHUTDOWN_SEND);
  (try
     while true do
       ignore (input_line t.ic)
     done
   with End_of_file -> ());
  close_in t.ic;
  Option.iter close_in t.announce;
  let code, cpu_s, maxrss_kb = wait4 t.pid in
  { code; cpu_s; maxrss_kb }

let reap_all () =
  List.iter (fun t -> try ignore (close t) with _ -> ()) !live
