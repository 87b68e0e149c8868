module B = Beethoven
module Soc = B.Soc

let command =
  B.Cmd_spec.make ~name:"vec_add" ~funct:0 ~response_bits:32
    [
      ("addend", B.Cmd_spec.Uint 32);
      ("vec_addr", B.Cmd_spec.Address);
      ("out_addr", B.Cmd_spec.Address);
      ("n_eles", B.Cmd_spec.Uint 20);
    ]

let system ~n_cores =
  B.Config.system ~name:"VecAdd" ~n_cores
    ~read_channels:[ B.Config.read_channel ~name:"vec_in" ~data_bytes:4 () ]
    ~write_channels:
      [ B.Config.write_channel ~name:"vec_out" ~data_bytes:4 () ]
    ~commands:[ command ]
    ~kernel_resources:(Platform.Resources.make ~clb:120 ~lut:600 ~ff:700 ())
    ()

let config ?(n_cores = 1) () =
  B.Config.make ~name:"vecadd" [ system ~n_cores ]

(* The Fig. 2 state machine at transaction level: each arriving word is
   incremented and pushed to the writer; the command completes when the
   final write response lands. *)
let behavior : Soc.behavior =
 fun ctx beats ~respond ->
  let arg = B.Cmd_spec.decode command beats in
  let addend = Int32.of_int (arg "addend") in
  let vec_addr = arg "vec_addr" and out_addr = arg "out_addr" in
  let n_eles = arg "n_eles" in
  let bytes = n_eles * 4 in
  let reader = Soc.reader ctx "vec_in" in
  let writer = Soc.writer ctx "vec_out" in
  let processed = ref 0 in
  Soc.Writer.begin_txn writer ~addr:out_addr ~bytes ~on_done:(fun () ->
      respond (Int64.of_int !processed));
  Soc.Reader.stream reader ~addr:vec_addr ~bytes
    ~on_item:(fun ~offset ->
      let v = Soc.read_u32 ctx.Soc.soc (vec_addr + offset) in
      Soc.write_u32 ctx.Soc.soc (out_addr + offset) (Int32.add v addend);
      incr processed;
      Soc.Writer.push writer ~on_accept:(fun () -> ()))
    ~on_done:(fun () -> ())
    ()

let run ?(n_cores = 1) ?(n_eles = 4096) ~platform () =
  let config = config ~n_cores () in
  let design = B.Elaborate.elaborate config platform in
  let soc = Soc.create design ~behaviors:(fun _ -> behavior) in
  let handle = Runtime.Handle.create soc in
  let bytes = n_eles * 4 in
  let input = Runtime.Handle.malloc handle bytes in
  let output = Runtime.Handle.malloc handle bytes in
  let host_in = Runtime.Handle.host_bytes handle input in
  let expected = Array.make n_eles 0l in
  let addend = 0xCAFEl in
  for i = 0 to n_eles - 1 do
    let v = Int32.of_int ((i * 7) land 0xFFFF) in
    Bytes.set_int32_le host_in (i * 4) v;
    expected.(i) <- Int32.add v addend
  done;
  let started = ref false in
  let results = ref [] in
  Runtime.Handle.copy_to_fpga handle input ~on_done:(fun () ->
      started := true;
      (* split the vector across cores *)
      let per_core = n_eles / n_cores in
      for core = 0 to n_cores - 1 do
        let first = core * per_core in
        let count =
          if core = n_cores - 1 then n_eles - first else per_core
        in
        let h =
          Runtime.Handle.send handle ~system:"VecAdd" ~core ~cmd:command
            ~args:
              [
                ("addend", Int64.of_int32 addend);
                ("vec_addr", Int64.of_int (input.Runtime.Handle.rp_addr + (first * 4)));
                ("out_addr", Int64.of_int (output.Runtime.Handle.rp_addr + (first * 4)));
                ("n_eles", Int64.of_int count);
              ]
        in
        results := h :: !results
      done);
  (* drive the simulation to completion of all handles *)
  Desim.Engine.run (Runtime.Handle.engine handle);
  if not !started then failwith "vecadd: DMA never completed";
  List.iter
    (fun h ->
      match Runtime.Handle.try_get h with
      | Some _ -> ()
      | None -> failwith "vecadd: command did not complete")
    !results;
  Runtime.Handle.copy_all_from_fpga handle [ output ];
  let host_out = Runtime.Handle.host_bytes handle output in
  let actual =
    Array.init n_eles (fun i -> Bytes.get_int32_le host_out (i * 4))
  in
  (expected, actual, Desim.Engine.now (Runtime.Handle.engine handle))
