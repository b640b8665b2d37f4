(* Order statistics and regression verdicts.  Everything here is pure so
   test_perf.ml can check it without running a simulation. *)

let sorted xs = Array.of_list (List.sort compare xs)

(* Linear interpolation between the two closest ranks (numpy's default). *)
let percentile xs p =
  match sorted xs with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    let r = p /. 100. *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    let frac = r -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.

(* The highest of the usual reporting percentiles that still has at least
   ten samples above it; with fewer than 20 samples not even the median
   qualifies and [None] is returned. *)
let supported_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (100. -. p) /. 100. >= 10. -. 1e-6)
    [ 99.9; 99.; 95.; 90.; 75.; 50. ]

(* Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
   method), so the spreads printed by [compare] are the ones other tools
   computing the same rule report. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then
    let v = if ld = 1 then a.(0) else nan in
    (v, v, v)
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(* Relative spread: interquartile distance as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then 0. else (q3 -. q1) /. Float.abs q2

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

type verdict =
  | Better  (** improved by more than the baseline's own spread *)
  | Within  (** no worse than the bound *)
  | Worse  (** worse by more than the bound: a regression *)
  | Unresolved  (** the spread is wider than the bound *)

let verdict_to_string = function
  | Better -> "better"
  | Within -> "within"
  | Worse -> "WORSE"
  | Unresolved -> "unresolved"

(* [base] and [change] are the per-run values of one (workload, metric).
   A spread wider than the bound leaves the comparison unresolved unless
   every change run beats every base run. *)
let verdict ~better ~bound ~base ~change =
  let mb = median base and mc = median change in
  let worse_share =
    match better with
    | Lower -> (mc -. mb) /. Float.abs mb
    | Higher -> (mb -. mc) /. Float.abs mb
  in
  let beats c b = match better with Lower -> c < b | Higher -> c > b in
  let all_better =
    List.for_all (fun c -> List.for_all (fun b -> beats c b) base) change
  in
  let noise = Float.max (spread base) (spread change) in
  if noise > bound && not all_better then Unresolved
  else if worse_share > bound then Worse
  else if worse_share < 0. && (all_better || -.worse_share > noise) then Better
  else Within
