open Ascend

type result = {
  values : Global_tensor.t;
  indices : Global_tensor.t option;
  true_count : int;
  stats : Stats.t;
}

let ub_tile = 8192

(* Per-vector-core buffer set for the gather phase. The GatherMask
   operand tiles ([xt]/[ft]) ping-pong under the pipeline walker; the
   remaining tiles are staged or produced within one item (UB cannot
   hold a second copy of all five input tiles at once). *)
type bufs = {
  xt : Local_tensor.t array;
  ft : Local_tensor.t array;
  nft : Local_tensor.t;
  et : Local_tensor.t;
  gbuf : Local_tensor.t;
  it : Local_tensor.t option;
  gi : Local_tensor.t option;
}

let alloc_bufs ctx ~v ~xdt ~with_indices ~span =
  let ub_n = Scan.Kernel_util.fit_tile ~tile:ub_tile ~span in
  let ub k dt = Block.alloc ctx (Mem_kind.Ub k) dt ub_n in
  let ub2 k dt = Array.init 2 (fun _ -> ub k dt) in
  {
    xt = ub2 v xdt;
    ft = ub2 v Dtype.I8;
    nft = ub v Dtype.I8;
    et = ub v Dtype.I32;
    gbuf = ub v xdt;
    it = (if with_indices then Some (ub v Dtype.I32) else None);
    gi = (if with_indices then Some (ub v Dtype.I32) else None);
  }

(* Stage one tile's GatherMask operands into ping-pong slot [slot]. *)
let load_tile ctx ~schedule ~v ~b ~x ~flags ~slot ~off ~len =
  let stage ~src ~dst =
    Scan.Scan_core.stage_in ctx ~schedule ~engine:(Engine.Vec_mte_in v) ~src
      ~src_off:off ~dst ~len ()
  in
  stage ~src:x ~dst:b.xt.(slot);
  stage ~src:flags ~dst:b.ft.(slot)

(* One tile of the gather phase on vector core [v]: two GatherMask
   compactions, written at the offsets dictated by the exclusive scan.
   [x]/[flags] were staged into slot [slot] by [load_tile]; the scan
   tile (and index tile) load synchronously here, single-buffered. *)
let gather_tile ctx ~v ~b ~slot ~e ~indices_in ~z ~zi ~total_true
    ~expected_density ~emit_falses ~off ~len =
  let functional = Block.functional ctx in
  let xt = b.xt.(slot) and ft = b.ft.(slot) and et = b.et in
  let it = b.it in
  Mte.copy_in ctx ~engine:(Engine.Vec_mte_in v) ~src:e ~src_off:off ~dst:et
    ~len ();
  (* In cost-only mode the per-tile counts come from the expected
     density; floor rounding can overshoot the output end by one
     element, so writes are clamped (traffic error <= 1 element). *)
  let clamp ~dst_off cnt =
    if functional then cnt
    else max 0 (min cnt (Global_tensor.length z - dst_off))
  in
  let base_true =
    let got = Vec.get ctx ~vec:v et 0 in
    if functional then int_of_float got
    else int_of_float (expected_density *. float_of_int off)
  in
  (* True run. *)
  let cnt_true =
    let got = Vec.gather_mask ctx ~vec:v ~src:xt ~mask:ft ~dst:b.gbuf ~len () in
    if functional then got
    else int_of_float (expected_density *. float_of_int len)
  in
  let cnt_true_w = clamp ~dst_off:base_true cnt_true in
  if cnt_true_w > 0 then
    Mte.copy_out ctx ~engine:(Engine.Vec_mte_out v) ~src:b.gbuf ~dst:z
      ~dst_off:base_true ~len:cnt_true_w ();
  (* False run, at [total_true + #falses before the tile]. *)
  if emit_falses then begin
    Vec.compare_scalar ctx ~vec:v Vec.Eq ~src:ft ~dst:b.nft ~scalar:0.0 ~len ();
    let cnt_false =
      let got = Vec.gather_mask ctx ~vec:v ~src:xt ~mask:b.nft ~dst:b.gbuf ~len () in
      if functional then got else len - cnt_true
    in
    let cnt_false_w = clamp ~dst_off:(total_true + off - base_true) cnt_false in
    if cnt_false_w > 0 then
      Mte.copy_out ctx ~engine:(Engine.Vec_mte_out v) ~src:b.gbuf ~dst:z
        ~dst_off:(total_true + off - base_true) ~len:cnt_false_w ()
  end;
  (* Source indices, permuted the same way. *)
  match zi, it, b.gi with
  | Some zi, Some it, Some gi ->
      (match indices_in with
      | Some src_idx ->
          Mte.copy_in ctx ~engine:(Engine.Vec_mte_in v) ~src:src_idx
            ~src_off:off ~dst:it ~len ()
      | None ->
          Vec.arange ctx ~vec:v ~dst:it ~start:(float_of_int off) ~len ());
      let cnt =
        let got = Vec.gather_mask ctx ~vec:v ~src:it ~mask:ft ~dst:gi ~len () in
        if functional then got else cnt_true
      in
      let cnt_w = clamp ~dst_off:base_true cnt in
      if cnt_w > 0 then
        Mte.copy_out ctx ~engine:(Engine.Vec_mte_out v) ~src:gi ~dst:zi
          ~dst_off:base_true ~len:cnt_w ();
      if emit_falses then begin
        let cntf =
          let got = Vec.gather_mask ctx ~vec:v ~src:it ~mask:b.nft ~dst:gi ~len () in
          if functional then got else len - cnt
        in
        let cntf_w = clamp ~dst_off:(total_true + off - base_true) cntf in
        if cntf_w > 0 then
          Mte.copy_out ctx ~engine:(Engine.Vec_mte_out v) ~src:gi ~dst:zi
            ~dst_off:(total_true + off - base_true) ~len:cntf_w ()
      end
  | _, _, _ -> ()

let run ?(s = 128) ?(expected_density = 0.5) ?(with_indices = false)
    ?indices_in ?(emit_falses = true) device ~x ~flags () =
  let n = Global_tensor.length x in
  (match Global_tensor.dtype x with
  | Dtype.F16 | Dtype.I16 | Dtype.U16 -> ()
  | d ->
      invalid_arg
        (Printf.sprintf "Split.run: x must be a 16-bit dtype (got %s)"
           (Dtype.to_string d)));
  if not (Dtype.equal (Global_tensor.dtype flags) Dtype.I8) then
    invalid_arg "Split.run: flags must be i8";
  if Global_tensor.length flags <> n then
    invalid_arg "Split.run: flags length mismatch";
  (match indices_in with
  | Some ix ->
      if Global_tensor.length ix <> n
         || not (Dtype.equal (Global_tensor.dtype ix) Dtype.I32)
      then invalid_arg "Split.run: indices_in must be i32 of the same length"
  | None -> ());
  if n = 0 then invalid_arg "Split.run: empty input";
  let name = Global_tensor.name x in
  (* Exclusive scan of the flags: e.(i) = #true flags before i. *)
  let e, scan_stats = Scan.Mcscan.run ~s ~exclusive:true device flags in
  let total_true =
    if Device.functional device then
      int_of_float (Global_tensor.get e (n - 1) +. Global_tensor.get flags (n - 1))
    else int_of_float (expected_density *. float_of_int n)
  in
  let z = Device.alloc device (Global_tensor.dtype x) n ~name:(name ^ "_split") in
  let zi =
    if with_indices then
      Some (Device.alloc device Dtype.I32 n ~name:(name ^ "_split_idx"))
    else None
  in
  let blocks = Scheduler.blocks (Scheduler.plan device ~n) in
  let vpc = (Device.cost device).Cost_model.vec_per_core in
  let nvec = blocks * vpc in
  let vchunk = Scan.Kernel_util.ceil_div n nvec in
  let body ctx =
    let i = Block.idx ctx in
    (* Hazard annotation: blocks write z/zi at scan-computed offsets
       whose bounding spans interleave, but the exclusive scan proves
       the actual element ranges disjoint. *)
    Block.assume_disjoint_writes ctx z
      ~reason:"split gather: scan-computed scatter offsets are disjoint";
    (match zi with
    | Some zi ->
        Block.assume_disjoint_writes ctx zi
          ~reason:"split gather: scan-computed scatter offsets are disjoint"
    | None -> ());
    let xdt = Global_tensor.dtype x in
    let schedule = Scan.Scan_core.current_schedule () in
    let bufs =
      Array.init vpc (fun v -> alloc_bufs ctx ~v ~xdt ~with_indices ~span:vchunk)
    in
    (* Each vector core walks its sub-block under the pipeline walker:
       the next tile's x/flags loads overlap the current tile's
       GatherMask compactions and scatter stores. *)
    for v = 0 to vpc - 1 do
      let vlo = ((i * vpc) + v) * vchunk in
      let vhi = min n (vlo + vchunk) in
      if vhi > vlo then
        Scan.Scan_core.pipeline_tiles ctx ~schedule
          ~in_engine:(Engine.Vec_mte_in v) ~tile:ub_tile ~n:(vhi - vlo)
          ~load:(fun ~slot ~off ~len ->
            load_tile ctx ~schedule ~v ~b:bufs.(v) ~x ~flags ~slot
              ~off:(vlo + off) ~len)
          ~work:(fun ~slot ~off ~len ->
            gather_tile ctx ~v ~b:bufs.(v) ~slot ~e ~indices_in ~z ~zi
              ~total_true ~expected_density ~emit_falses ~off:(vlo + off)
              ~len)
          ()
    done
  in
  let gather_stats = Launch.run ~name:"split_gather" device ~blocks body in
  (* The exclusive scan is dead once the gather has consumed it. *)
  Global_tensor.retire e;
  {
    values = z;
    indices = zi;
    true_count = (if Device.functional device then total_true else 0);
    stats = Stats.combine ~name:"split_ind" [ scan_stats; gather_stats ];
  }
