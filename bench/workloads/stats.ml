(* Timing and sample statistics for the workload benchmark.  Every clock
   read goes through Bechamel's monotonic clock (CLOCK_MONOTONIC, in
   nanoseconds), so no measurement here can jump with wall-clock
   adjustments. *)

let now_ns () = Monotonic_clock.now ()

let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

(* [time f] runs [f] once and returns its result with the elapsed
   seconds. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_between t0 (now_ns ()))

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartiles by the method of Python's
   [statistics.quantiles(xs, n=4)] (the default "exclusive" method), so
   spreads computed here match the ones a reader recomputes from the
   per-run values. *)
let quartiles xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let a = sorted xs in
  let m = n + 1 in
  let q i =
    let j = min (n - 1) (max 1 (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
  in
  (q 1, q 3)

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. median xs

let min_beyond = 10

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it.  A tail percentile is only as good as the
   samples beyond it, so this refuses ([None]) when fewer than
   [min_beyond] samples lie above the chosen rank. *)
let percentile ~p xs =
  if p <= 0. || p > 100. then invalid_arg "Stats.percentile: p outside (0, 100]";
  let n = Array.length xs in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  if n = 0 || n - rank < min_beyond then None else Some (sorted xs).(max 1 rank - 1)

(* Peak resident set size of this process (VmHWM) in MiB, or [nan] where
   /proc is unavailable. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | status ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.
          | [] -> acc)
        | _ -> acc)
      nan
      (String.split_on_char '\n' status)
