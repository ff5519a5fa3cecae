open Ascend

(* CumSum baseline: the local-scan step is the composite vector CumSum
   instruction; tiling and the carry epilogue come from the generic
   core (the whole tile is one propagation row). The input stages
   through two ping-pong UB tiles so the copy-in of tile [t+1] overlaps
   the CumSum of tile [t]; the single output tile keeps the f32 case
   exactly within the 192 KB UB (2 x 64 KB in + 64 KB out), so stores
   stay synchronous. *)
let run ?(rows = 128) ?(cols = 128) device x =
  let n = Global_tensor.length x in
  let dt = Global_tensor.dtype x in
  (match dt with
  | Dtype.F16 | Dtype.F32 -> ()
  | d ->
      invalid_arg
        (Printf.sprintf "Scan_vec_only.run: unsupported input dtype %s"
           (Dtype.to_string d)));
  let y = Device.alloc device dt n ~name:(Global_tensor.name x ^ "_cumsum") in
  let tile = rows * cols in
  let body ctx =
    let schedule = Scan_core.current_schedule () in
    (* A tile's CumSum covers whole rows of [cols]. *)
    let ub_n = Kernel_util.fit_tile ~tile ~span:(Kernel_util.round_up n cols) in
    let ub_in = Array.init 2 (fun _ -> Block.alloc ctx (Mem_kind.Ub 0) dt ub_n) in
    let ub_out = Block.alloc ctx (Mem_kind.Ub 0) dt ub_n in
    let partial = ref (Scan_op.Sum.identity dt) in
    Scan_core.pipeline_tiles ctx ~schedule ~in_engine:(Engine.Vec_mte_in 0)
      ~tile ~n
      ~load:(fun ~slot ~off ~len ->
        Scan_core.stage_in ctx ~schedule ~engine:(Engine.Vec_mte_in 0) ~src:x
          ~src_off:off ~dst:ub_in.(slot) ~len ())
      ~work:(fun ~slot ~off ~len ->
        let trows = Kernel_util.ceil_div len cols in
        Vec.cumsum ctx ~src:ub_in.(slot) ~dst:ub_out ~rows:trows ~cols ();
        Scan_core.finish_tile
          (module Scan_op.Sum)
          ctx ~ub:ub_out ~dst:y ~off ~len ~s:tile ~partial ())
      ()
  in
  let stats = Launch.run ~name:"cumsum_vec_only" device ~blocks:1 body in
  (y, stats)
