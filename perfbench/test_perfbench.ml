(* The benchmark's own tests: the tail rule, the metric-name charset,
   and a short smoke run of every workload that must print every metric
   BENCHMARK.json names, with its unit. The smoke runs take the same
   path as real runs, only shorter and with a smaller cache-hot hot set. *)

open Perfbench
module Json = Suu_service.Json

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let test_tail () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  (match Metric.tail xs with
  | Some t ->
      check "tail of 1..100 is 90" (t.value = 90.);
      check "exactly 10 samples beyond"
        (List.length (List.filter (fun x -> x > t.value) xs) = 10);
      check "tail percentile is 90" (t.percentile = 90.)
  | None -> check "tail of 100 samples exists" false);
  check "no tail with 10 samples"
    (Metric.tail (List.init 10 float_of_int) = None);
  (match Metric.tail (List.init 11 float_of_int) with
  | Some t -> check "11 samples: the minimum, 10 beyond" (t.value = 0.)
  | None -> check "tail of 11 samples exists" false);
  match Metric.tail (List.init 5000 float_of_int) with
  | Some t ->
      check "5000 samples: the 4990th" (t.value = 4989.);
      check "5000 samples: p99.8" (t.percentile = 99.8)
  | None -> check "tail of 5000 samples exists" false

let test_names () =
  List.iter
    (fun n -> check ("valid name " ^ n) (Metric.valid_name n))
    [ "latency_p50_ms"; "service.cache_lookup_us"; "sharded-split"; "1x" ];
  List.iter
    (fun n -> check ("invalid name " ^ n) (not (Metric.valid_name n)))
    [ ""; "a b"; "_x"; ".x"; "x/y"; "caf\xc3\xa9"; String.make 65 'a' ]

let spec =
  let text = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
  match Json.of_string text with
  | Ok j -> j
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

let list key =
  match Json.member key spec with
  | Some (Json.List l) -> l
  | _ -> failwith ("BENCHMARK.json: missing " ^ key)

let str key j = Option.get (Option.bind (Json.member key j) Json.to_str)

let test_spec_names () =
  List.iter
    (fun key ->
      List.iter
        (fun j ->
          let name = str "name" j in
          check ("charset of " ^ name) (Metric.valid_name name))
        (list key))
    [ "workloads"; "end_to_end"; "per_layer" ]

let run_bench args =
  let ic =
    Unix.open_process_args_in "./main.exe" (Array.of_list ("./main.exe" :: args))
  in
  let lines =
    In_channel.input_all ic |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  (Unix.close_process_in ic, lines)

(* The last line must be the result object, printing exactly the metrics
   [key] of BENCHMARK.json names, each with its unit and a number. *)
let check_result what key lines =
  match Json.of_string (List.nth lines (List.length lines - 1)) with
  | Ok (Json.Obj fields as j) ->
      check (what ^ " result keys")
        (List.map fst fields = [ "correct"; "attempted"; "failed"; "metrics" ]);
      check (what ^ " correct") (Json.member "correct" j = Some (Json.Bool true));
      let printed =
        match Json.member "metrics" j with Some (Json.Obj ms) -> ms | _ -> []
      in
      let expected = List.map (fun m -> (str "name" m, str "unit" m)) (list key) in
      check (what ^ " prints exactly the named metrics")
        (List.map fst printed = List.map fst expected);
      List.iter
        (fun (name, unit_) ->
          match List.assoc_opt name printed with
          | Some m ->
              check (what ^ " unit of " ^ name)
                (Option.bind (Json.member "unit" m) Json.to_str = Some unit_);
              check (what ^ " value of " ^ name)
                (Option.bind (Json.member "value" m) Json.to_num <> None)
          | None -> check (what ^ " prints " ^ name) false)
        expected
  | _ -> check (what ^ " last line is a JSON object") false

let test_smoke () =
  List.iter
    (fun w ->
      let workload = str "name" w in
      List.iter
        (fun (trace, key) ->
          let what = Printf.sprintf "%s --trace %s" workload trace in
          let status, lines =
            run_bench
              [
                "--workload"; workload; "--seed"; "7"; "--seconds"; "1.5";
                "--trace"; trace; "--suu"; "../bin/suu_cli.exe";
                "--out"; "out-test"; "--hot-keys"; "8";
              ]
          in
          check (what ^ " exits 0") (status = Unix.WEXITED 0);
          if lines = [] then check (what ^ " prints a result") false
          else check_result what key lines)
        [ ("0", "end_to_end"); ("1", "per_layer") ])
    (list "workloads")

let () =
  test_tail ();
  test_names ();
  test_spec_names ();
  test_smoke ();
  if !failures > 0 then exit 1;
  print_endline "perfbench tests: ok"
