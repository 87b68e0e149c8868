module B = Beethoven
module Soc = B.Soc
module R = Platform.Resources

let load_kv_command =
  B.Cmd_spec.make ~name:"load_kv" ~funct:0 ~response_bits:1
    [ ("k_addr", B.Cmd_spec.Address); ("v_addr", B.Cmd_spec.Address) ]

let attend_command =
  B.Cmd_spec.make ~name:"attend" ~funct:1 ~response_bits:32
    [
      ("q_addr", B.Cmd_spec.Address);
      ("out_addr", B.Cmd_spec.Address);
      ("n_queries", B.Cmd_spec.Uint 24);
    ]

(* One K or V row = 64 bytes; the scratchpads stage four batches of
   operands so the next batches' K/V can load during compute. *)
let row_bytes = A3.dim
let kv_bytes = A3.n_keys * row_bytes

let config ?(n_cores = 23) () =
  B.Config.make ~name:"a3_attention"
    [
      B.Config.system ~name:"A3" ~n_cores
        ~read_channels:
          [
            (* query stream; buffer sized per the paper's Query reader *)
            B.Config.read_channel ~name:"query" ~data_bytes:64
              ~buffer_beats:480 ();
          ]
        ~write_channels:
          [
            B.Config.write_channel ~name:"output" ~data_bytes:64
              ~buffer_beats:480 ();
          ]
        ~scratchpads:
          [
            B.Config.scratchpad ~name:"keys" ~data_bits:512
              ~n_datas:(4 * A3.n_keys) ~init_from_memory:true ();
            B.Config.scratchpad ~name:"values" ~data_bits:512
              ~n_datas:(4 * A3.n_keys) ~init_from_memory:true ();
          ]
        ~commands:[ load_kv_command; attend_command ]
          (* Table II kernel row: ~3K CLB, 16.9K LUT, 8.2K FF, 1 BRAM *)
        ~kernel_resources:(R.make ~clb:2100 ~lut:16900 ~ff:8200 ~bram:1 ())
        ();
    ]

let auto_cores platform =
  let fits n =
    match B.Floorplan.place (config ~n_cores:n ()) platform with
    | exception Failure _ -> false
    | _ -> true
  in
  let rec grow n = if n < 64 && fits (n + 1) then grow (n + 1) else n in
  if fits 1 then grow 1 else 0

(* Read an int8 row of [dim] operands from a bytes source. *)
let row_of_bytes b off =
  Array.init A3.dim (fun d ->
      let v = Char.code (Bytes.get b (off + d)) in
      if v >= 128 then v - 256 else v)

let behavior : Soc.behavior =
 fun ctx beats ~respond ->
  let cmd = List.hd beats in
  let soc = ctx.Soc.soc in
  match cmd.B.Rocc.funct with
  | 0 ->
      (* load_kv: fill both scratchpads from device memory *)
      let args =
        B.Cmd_spec.unpack load_kv_command
          (List.map (fun b -> (b.B.Rocc.payload1, b.B.Rocc.payload2)) beats)
      in
      let k_addr = Int64.to_int (List.assoc "k_addr" args) in
      let v_addr = Int64.to_int (List.assoc "v_addr" args) in
      let keys_sp = Soc.scratchpad ctx "keys" in
      let values_sp = Soc.scratchpad ctx "values" in
      let pending = ref 2 in
      let arrive () =
        decr pending;
        if !pending = 0 then respond 1L
      in
      Soc.Scratchpad.init_from_memory keys_sp ~addr:k_addr ~bytes:kv_bytes
        ~on_done:arrive ();
      Soc.Scratchpad.init_from_memory values_sp ~addr:v_addr ~bytes:kv_bytes
        ~on_done:arrive ()
  | 1 ->
      (* attend: stream queries through the three-stage pipeline *)
      let args =
        B.Cmd_spec.unpack attend_command
          (List.map (fun b -> (b.B.Rocc.payload1, b.B.Rocc.payload2)) beats)
      in
      let q_addr = Int64.to_int (List.assoc "q_addr" args) in
      let out_addr = Int64.to_int (List.assoc "out_addr" args) in
      let n_queries = Int64.to_int (List.assoc "n_queries" args) in
      let keys_sp = Soc.scratchpad ctx "keys" in
      let values_sp = Soc.scratchpad ctx "values" in
      (* materialize the stationary operands once per command *)
      let keys =
        Array.init A3.n_keys (fun i ->
            row_of_bytes (Soc.Scratchpad.get keys_sp i) 0)
      in
      let values =
        Array.init A3.n_keys (fun i ->
            row_of_bytes (Soc.Scratchpad.get values_sp i) 0)
      in
      let reader = Soc.reader ctx "query" in
      let writer = Soc.writer ctx "output" in
      let out_bytes = n_queries * row_bytes in
      Soc.Writer.begin_txn writer ~addr:out_addr ~bytes:out_bytes
        ~on_done:(fun () -> respond (Int64.of_int n_queries));
      (* pipeline occupancy: a query enters stage 1 every issue_interval
         cycles once its operand has arrived *)
      let stage_free = ref 0 in
      Soc.Reader.stream reader ~addr:q_addr ~bytes:out_bytes ~item_bytes:64
        ~on_item:(fun ~offset ->
          let qi = offset / row_bytes in
          let query =
            Array.init A3.dim (fun d ->
                let v = Soc.read_u8 soc (q_addr + offset + d) in
                if v >= 128 then v - 256 else v)
          in
          let now = Desim.Engine.now ctx.Soc.engine in
          let start = max now !stage_free in
          stage_free :=
            start + (A3.issue_interval_cycles * ctx.Soc.clock_ps);
          let finish =
            start + (A3.pipeline_latency_cycles * ctx.Soc.clock_ps)
          in
          Desim.Engine.schedule_at ctx.Soc.engine ~time:finish (fun () ->
              let out = A3.attend_fixed ~query ~keys ~values in
              Array.iteri
                (fun d v ->
                  Soc.write_u8 soc (out_addr + (qi * row_bytes) + d)
                    (v land 0xff))
                out;
              Soc.Writer.push writer ~on_accept:(fun () -> ())))
        ~on_done:(fun () -> ())
        ()
  | f -> failwith (Printf.sprintf "A3: unknown funct %d" f)

type result = {
  n_cores : int;
  n_queries : int;
  wall_ps : int;
  throughput_ops : float;
  max_error : float;
  verified : bool;
}

let run ?(n_queries_per_core = 64) ?(n_cores = 23) ~platform () =
  let design = B.Elaborate.elaborate (config ~n_cores ()) platform in
  let soc = Soc.create design ~behaviors:(fun _ -> behavior) in
  let handle = Runtime.Handle.create soc in
  let module H = Runtime.Handle in
  let rand =
    let state = ref 42 in
    fun () ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      !state
  in
  let q8 () = (rand () mod 33) - 16 in
  (* per-core K/V and query buffers *)
  let core_data =
    Array.init n_cores (fun _ ->
        let keys =
          Array.init A3.n_keys (fun _ -> Array.init A3.dim (fun _ -> q8 ()))
        in
        let values =
          Array.init A3.n_keys (fun _ -> Array.init A3.dim (fun _ -> q8 ()))
        in
        let queries =
          Array.init n_queries_per_core (fun _ ->
              Array.init A3.dim (fun _ -> q8 ()))
        in
        (keys, values, queries))
  in
  let allocs =
    Array.map
      (fun (keys, values, queries) ->
        let pk = H.malloc handle kv_bytes in
        let pv = H.malloc handle kv_bytes in
        let pq = H.malloc handle (n_queries_per_core * row_bytes) in
        let po = H.malloc handle (n_queries_per_core * row_bytes) in
        let put buf rows =
          Array.iteri
            (fun i row ->
              Array.iteri
                (fun d v ->
                  Bytes.set buf ((i * row_bytes) + d)
                    (Char.chr (v land 0xff)))
                row)
            rows
        in
        put (H.host_bytes handle pk) keys;
        put (H.host_bytes handle pv) values;
        put (H.host_bytes handle pq) queries;
        (pk, pv, pq, po))
      core_data
  in
  let pending = ref 0 in
  Array.iter
    (fun (pk, pv, pq, _) ->
      List.iter
        (fun p ->
          incr pending;
          H.copy_to_fpga handle p ~on_done:(fun () -> decr pending))
        [ pk; pv; pq ])
    allocs;
  Desim.Engine.run (H.engine handle);
  if !pending <> 0 then failwith "A3: input DMA incomplete";
  (* load K/V on every core *)
  let loads =
    Array.to_list
      (Array.mapi
         (fun core (pk, pv, _, _) ->
           H.send handle ~system:"A3" ~core ~cmd:load_kv_command
             ~args:
               [
                 ("k_addr", Int64.of_int pk.H.rp_addr);
                 ("v_addr", Int64.of_int pv.H.rp_addr);
               ])
         allocs)
  in
  ignore (H.await_all handle loads);
  (* attention phase *)
  let t1 = Desim.Engine.now (H.engine handle) in
  let runs =
    Array.to_list
      (Array.mapi
         (fun core (_, _, pq, po) ->
           H.send handle ~system:"A3" ~core ~cmd:attend_command
             ~args:
               [
                 ("q_addr", Int64.of_int pq.H.rp_addr);
                 ("out_addr", Int64.of_int po.H.rp_addr);
                 ("n_queries", Int64.of_int n_queries_per_core);
               ])
         allocs)
  in
  ignore (H.await_all handle runs);
  let t2 = Desim.Engine.now (H.engine handle) in
  (* collect + verify *)
  let pending = ref 0 in
  Array.iter
    (fun (_, _, _, po) ->
      incr pending;
      H.copy_from_fpga handle po ~on_done:(fun () -> decr pending))
    allocs;
  Desim.Engine.run (H.engine handle);
  if !pending <> 0 then failwith "A3: output DMA incomplete";
  let verified = ref true in
  let max_error = ref 0.0 in
  Array.iteri
    (fun core (keys, values, queries) ->
      let _, _, _, po = allocs.(core) in
      let out_host = H.host_bytes handle po in
      Array.iteri
        (fun qi query ->
          let expect = A3.attend_fixed ~query ~keys ~values in
          let got = row_of_bytes out_host (qi * row_bytes) in
          if got <> expect then verified := false;
          let float_ref =
            A3.attend_float
              ~query:(Array.map A3.dequantize query)
              ~keys:(Array.map (Array.map A3.dequantize) keys)
              ~values:(Array.map (Array.map A3.dequantize) values)
          in
          let err = A3.mean_abs_error got float_ref in
          if err > !max_error then max_error := err)
        queries)
    core_data;
  let n_queries = n_cores * n_queries_per_core in
  let wall_ps = t2 - t1 in
  {
    n_cores;
    n_queries;
    wall_ps;
    throughput_ops =
      float_of_int n_queries /. (float_of_int wall_ps *. 1e-12);
    max_error = !max_error;
    verified = !verified;
  }
