(* Sample statistics and the result line the benchmark prints. *)

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The tail is the highest order statistic with at least [beyond]
   samples above it: the (n - beyond)-th smallest of n, at percentile
   100 (n - beyond) / n. A continuous rule rather than a p95/p99 ladder,
   so a run that completes a few more or fewer requests moves the
   percentile by a hair instead of jumping a rung. *)
type tail = { value : float; percentile : float; samples : int }

let tail ?(beyond = 10) xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n <= beyond then None
  else
    Some
      {
        value = a.(n - beyond - 1);
        percentile = 100. *. float_of_int (n - beyond) /. float_of_int n;
        samples = n;
      }

let geomean = function
  | [] -> nan
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s
  && match s.[0] with '_' | '.' | '-' -> false | _ -> true

type t = { name : string; value : float; unit_ : string }

(* Every digit as measured: 15 significant digits when they read back
   to the same double, else 17. Non-finite values are not JSON; they
   print as [null] and the caller treats the run as failed. *)
let number v =
  if not (Float.is_finite v) then "null"
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let field m =
    if not (valid_name m.name) then invalid_arg ("metric name " ^ m.name);
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number m.value)
      m.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map field metrics))
