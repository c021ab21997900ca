(* Host-drift probe: a fixed integer and float loop whose work never
   changes, timed before and after each measured phase. When a run is
   slower and the probe is slower by the same share, the host drifted;
   when only the run is slower, the program did. *)

let iterations = 30_000_000

let spin n =
  let x = ref 0x2545F4914F6CDD1D and acc = ref 0. in
  for _ = 1 to n do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    acc := !acc +. Float.of_int (!x land 0xff)
  done;
  Sys.opaque_identity !acc

let run_ms () =
  let t0 = Suu_obs.Clock.now_ms () in
  ignore (spin iterations);
  Suu_obs.Clock.now_ms () -. t0
