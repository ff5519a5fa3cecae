(* Order statistics and the host-speed probe, shared by the workers and
   the coordinator. *)

let percentile_grid = [ 50.0; 75.0; 90.0; 95.0; 99.0; 99.9 ]

(* The highest grid percentile that leaves at least ten of [n] samples
   beyond it; [None] when even the median does not. *)
let tail_percentile n =
  List.fold_left
    (fun acc p ->
      if float_of_int n *. (100.0 -. p) /. 100.0 >= 10.0 -. 1e-9 then Some p else acc)
    None percentile_grid

(* Whether [n] samples leave at least ten beyond percentile [p]. *)
let tail_covered ~p n = match tail_percentile n with Some q -> q >= p | None -> false

(* Linear interpolation between closest ranks (numpy's default). *)
let percentile p xs =
  match Array.length xs with
  | 0 -> nan
  | n ->
      let a = Array.copy xs in
      Array.sort Float.compare a;
      let r = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (Float.of_int (truncate r)) in
      let hi = min (n - 1) (lo + 1) in
      a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 50.0 xs

let mean xs =
  match Array.length xs with
  | 0 -> nan
  | n -> Array.fold_left ( +. ) 0.0 xs /. float_of_int n

(* One random cycle through 2^18 slots (Sattolo's shuffle). *)
let chase =
  lazy
    (let n = 1 lsl 18 in
     let st = Random.State.make [| 1 |] in
     let a = Bigarray.Array1.init Bigarray.int Bigarray.c_layout n Fun.id in
     for i = n - 1 downto 1 do
       let j = Random.State.int st i in
       let t = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- t
     done;
     a)

(* Host-speed probe. On a 2-vCPU Xeon VM that shares its caches and
   memory with other tenants, this simulator's host work slows by up
   to 1.8x in episodes of seconds to minutes, while an ALU-only loop
   such as [calibration_ns] moves by about 10%. This fixed loop slows
   with the workloads: it builds and drops a list and a hash table of
   small blocks, so it allocates and promotes the way the simulator's
   host code does, then follows a random cycle through 2 MB of
   off-heap memory. Timed between requests, outside every timed part,
   its reading gives the host's current speed: over 30 s windows of one
   process, the median of request time over the neighbouring probe
   time spread by at most 3% (IQR over median) where request time alone
   spread by up to 18%. Returns ms. *)
let probe_ms () =
  let chase = Lazy.force chase in
  let t0 = Monotonic_clock.now () in
  let l = ref [] in
  for i = 1 to 80_000 do
    l := (i, float_of_int i) :: !l;
    if i mod 50_000 = 0 then l := []
  done;
  let h = Hashtbl.create 16 in
  for i = 1 to 40_000 do
    Hashtbl.replace h (i * 7919) (Array.make 4 i)
  done;
  let j = ref 0 in
  for _ = 1 to 400_000 do
    j := Bigarray.Array1.unsafe_get chase !j
  done;
  ignore (Sys.opaque_identity (!l, h, !j));
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6

(* The probe's reading on the reference host; host times are reported
   as they would read at that speed. *)
let reference_probe_ms = 25.0

(* Scale of host time spent between two probe readings. *)
let speed_scale ~before ~after = reference_probe_ms /. ((before +. after) /. 2.0)

(* Median ns of five probe readings, taken before and after a run so
   that host drift shows next to its numbers. *)
let calibration_ns () = 1e6 *. median (Array.init 5 (fun _ -> probe_ms ()))
