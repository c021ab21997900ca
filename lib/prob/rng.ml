type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* splitmix64 finaliser: xor-shift-multiply mixing of the Weyl state. *)
let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed) }

let copy rng = { state = rng.state }

let int64 rng =
  rng.state <- Int64.add rng.state golden_gamma;
  mix64 rng.state

let split rng = { state = mix64 (int64 rng) }

(* Output [k] of [create seed]'s stream, computed in O(1): the Weyl
   state after [k + 1] advances, mixed. *)
let derive seed k =
  Int64.to_int
    (mix64
       (Int64.add
          (mix64 (Int64.of_int seed))
          (Int64.mul (Int64.of_int (k + 1)) golden_gamma)))

(* Non-negative 63-bit value, suitable for modular reduction on OCaml ints. *)
let bits63 rng = Int64.to_int (Int64.shift_right_logical (int64 rng) 1)

let int rng bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let rec loop () =
    let r = bits63 rng in
    let v = r mod bound in
    if r - v + (bound - 1) < 0 then loop () else v
  in
  loop ()

let float rng =
  (* 53 high-quality bits mapped to [0,1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (int64 rng) 11) in
  Float.of_int bits *. 0x1p-53

let uniform rng lo hi = lo +. ((hi -. lo) *. float rng)

let bool rng = Int64.logand (int64 rng) 1L = 1L

let bernoulli rng p =
  if p <= 0. then false else if p >= 1. then true else float rng < p

let geometric rng p =
  if p <= 0. then invalid_arg "Rng.geometric: p must be positive";
  if p >= 1. then 1
  else
    (* Inversion: ceil(log(1-U) / log(1-p)) has the right distribution. *)
    let u = float rng in
    let k = Float.to_int (Float.ceil (Float.log1p (-.u) /. Float.log1p (-.p))) in
    max 1 k

let exponential rng rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  -.Float.log1p (-.float rng) /. rate

let pick rng a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int rng (Array.length a))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation rng n =
  let a = Array.init n (fun i -> i) in
  shuffle rng a;
  a
