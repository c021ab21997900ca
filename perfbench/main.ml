(* The served-path benchmark driver. See README.md beside this file.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--suu PATH] [--out DIR] [--hot-keys N]

   Prints a few human-readable lines, then one JSON result line. *)

open Perfbench

let usage () : 'a =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--suu PATH] [--out DIR] [--hot-keys N]";
  exit 2

let () =
  let workload = ref None and seed = ref None in
  let seconds = ref None and trace = ref None in
  let exe = ref "_build/default/bin/suu_cli.exe" in
  let out_dir = ref "perfbench/out" and hot_keys = ref None in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := (match Gen.find v with None -> usage () | w -> w);
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        parse rest
    | "--suu" :: v :: rest ->
        exe := v;
        parse rest
    | "--out" :: v :: rest ->
        out_dir := v;
        parse rest
    | "--hot-keys" :: v :: rest ->
        hot_keys :=
          (match int_of_string_opt v with
          | Some k when k > 0 -> Some k
          | _ -> usage ());
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace when seconds > 0. ->
      if not (Sys.file_exists !exe) then begin
        Printf.eprintf "perfbench: %s not found (build it first)\n" !exe;
        exit 1
      end;
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let o =
        {
          Runner.exe = !exe;
          out_dir = !out_dir;
          workload;
          seed;
          seconds;
          trace;
          hot_keys = !hot_keys;
        }
      in
      let out, acct =
        try Runner.run o
        with e ->
          Server.reap_all ();
          raise e
      in
      Printf.printf
        "perfbench %s seed=%d seconds=%g trace=%b nproc=%d git=%s ocaml=%s\n"
        workload.name seed seconds trace
        (Domain.recommended_domain_count ())
        (Option.value (Sys.getenv_opt "PERFBENCH_GIT") ~default:"unknown")
        Sys.ocaml_version;
      List.iter print_endline out.info;
      List.iter
        (fun (m : Metric.t) ->
          Printf.printf "  %-28s %22s %s\n" m.name (Metric.number m.value)
            m.unit_)
        out.metrics;
      Printf.printf "requests: sent %d, ok %d, failed %d\n" acct.attempted
        (acct.attempted - acct.failed)
        acct.failed;
      List.iter (Printf.printf "failure: %s\n") (List.rev acct.notes);
      let finite =
        List.for_all (fun (m : Metric.t) -> Float.is_finite m.value) out.metrics
      in
      print_endline
        (Metric.result_line
           ~correct:(acct.failed = 0 && finite)
           ~attempted:acct.attempted ~failed:acct.failed out.metrics)
  | _ -> usage ()
