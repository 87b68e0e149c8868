(* Bridge between an RTL core (Hw.Sim, compiled backend by default) and
   the transaction-level SoC: the composer-generated glue a Beethoven
   user never writes by hand. *)

let bits_of_mem soc addr n_bytes =
  Bits.concat_list
    (List.init n_bytes (fun i ->
         Bits.of_int ~width:8 (Soc.read_u8 soc (addr + (n_bytes - 1 - i)))))

let mem_of_bits soc addr b =
  let n_bytes = Bits.width b / 8 in
  for i = 0 to n_bytes - 1 do
    Soc.write_u8 soc (addr + i)
      (Bits.to_int (Bits.slice b ~hi:((8 * i) + 7) ~lo:(8 * i)))
  done

type read_bridge = {
  rb_chan : Config.read_channel;
  rb_reader : Soc.Reader.r;
  rb_items : int Queue.t; (* offsets whose data has arrived *)
  mutable rb_base : int; (* base address of the active stream *)
  mutable rb_presented : bool; (* data_valid currently asserted *)
  mutable rb_active : bool; (* a stream is in flight *)
}

type write_bridge = {
  wb_chan : Config.write_channel;
  wb_writer : Soc.Writer.w;
  mutable wb_base : int;
  mutable wb_offset : int;
  mutable wb_open : bool; (* a transaction is open *)
  mutable wb_done : bool; (* last opened txn fully responded *)
  mutable wb_unacked : int; (* pushes not yet accepted by the writer *)
}

type spad_bridge = {
  sb_name : string;
  sb_spad : Soc.Scratchpad.sp;
  sb_row_bits : int;
}

type core_state = {
  sim : Hw.Sim.t;
  reads : read_bridge list;
  writes : write_bridge list;
  spads : spad_bridge list;
}

let input_exists circuit name =
  List.mem_assoc name (Hw.Circuit.inputs circuit)

let output_exists circuit name =
  List.mem_assoc name (Hw.Circuit.outputs circuit)

let require_port circuit ~dir name =
  let ok =
    match dir with
    | `In -> input_exists circuit name
    | `Out -> output_exists circuit name
  in
  if not ok then
    failwith
      (Printf.sprintf "Rtl_core: circuit %s is missing %s port %S"
         (Hw.Circuit.name circuit)
         (match dir with `In -> "input" | `Out -> "output")
         name)

(* Outputs are mandatory (the fabric samples them); unconsumed inputs are
   constant-folded out of the user's netlist and simply aren't driven. *)
let validate circuit (sys : Config.system) =
  List.iter (require_port circuit ~dir:`Out)
    [ "req_ready"; "resp_valid"; "resp_data" ];
  List.iter
    (fun (rc : Config.read_channel) ->
      let c = rc.Config.rc_name in
      List.iter (require_port circuit ~dir:`Out)
        [ c ^ "_req_valid"; c ^ "_req_addr"; c ^ "_req_len"; c ^ "_data_ready" ])
    sys.Config.read_channels;
  List.iter
    (fun (wc : Config.write_channel) ->
      let c = wc.Config.wc_name in
      List.iter (require_port circuit ~dir:`Out)
        [
          c ^ "_req_valid"; c ^ "_req_addr"; c ^ "_req_len"; c ^ "_data_valid";
          c ^ "_data";
        ])
    sys.Config.write_channels

(* one simulator per (soc, system, core) *)
let instances : (int * string * int, core_state) Hashtbl.t = Hashtbl.create 8

let state_of ?backend ~build (ctx : Soc.ctx) =
  let key =
    (Soc.uid ctx.Soc.soc, ctx.Soc.system.Config.sys_name, ctx.Soc.core_id)
  in
  match Hashtbl.find_opt instances key with
  | Some st -> st
  | None ->
      let circuit = build () in
      validate circuit ctx.Soc.system;
      let sim = Hw.Sim.create ?backend circuit in
      let reads =
        List.map
          (fun rc ->
            {
              rb_chan = rc;
              rb_reader = Soc.reader ctx rc.Config.rc_name;
              rb_items = Queue.create ();
              rb_base = 0;
              rb_presented = false;
              rb_active = false;
            })
          ctx.Soc.system.Config.read_channels
      in
      let writes =
        List.map
          (fun wc ->
            {
              wb_chan = wc;
              wb_writer = Soc.writer ctx wc.Config.wc_name;
              wb_base = 0;
              wb_offset = 0;
              wb_open = false;
              wb_done = true;
              wb_unacked = 0;
            })
          ctx.Soc.system.Config.write_channels
      in
      (* scratchpads with RTL read ports: <name>_rd_addr / <name>_rd_data *)
      let spads =
        List.filter_map
          (fun (sp : Config.scratchpad) ->
            let nm = sp.Config.sp_name in
            if output_exists circuit (nm ^ "_rd_addr") then begin
              if not (input_exists circuit (nm ^ "_rd_data")) then
                failwith
                  (Printf.sprintf
                     "Rtl_core: %s_rd_addr without a %s_rd_data input" nm nm);
              Some
                {
                  sb_name = nm;
                  sb_spad = Soc.scratchpad ctx nm;
                  sb_row_bits = 8 * ((sp.Config.sp_data_bits + 7) / 8);
                }
            end
            else None)
          ctx.Soc.system.Config.scratchpads
      in
      let st = { sim; reads; writes; spads } in
      Hashtbl.add instances key st;
      st

let high sim name = Hw.Sim.output_int sim name = 1

let behavior ?backend ~build () : Soc.behavior =
 fun ctx beats ~respond ->
  let st = state_of ?backend ~build ctx in
  let sim = st.sim in
  let soc = ctx.Soc.soc in
  let pending_beats = ref beats in
  let resp_data = ref 0L in
  let responded = ref false in
  let budget = ref 10_000_000 in
  let set name v = try Hw.Sim.set_input sim name v with Not_found -> () in
  let set_int name v =
    try Hw.Sim.set_input_int sim name v with Not_found -> ()
  in
  let rec cycle () =
    decr budget;
    if !budget <= 0 then
      failwith "Rtl_core: core never responded (cycle budget exhausted)";
    (* -- drive inputs for this cycle -- *)
    (match !pending_beats with
    | beat :: _ ->
        set_int "req_valid" 1;
        set_int "req_funct" beat.Rocc.funct;
        set "req_p1" (Bits.of_int64 ~width:64 beat.Rocc.payload1);
        set "req_p2" (Bits.of_int64 ~width:64 beat.Rocc.payload2)
    | [] -> set_int "req_valid" 0);
    set_int "resp_ready" 1;
    List.iter
      (fun rb ->
        let c = rb.rb_chan.Config.rc_name in
        (* request port accepted only while the Reader is idle; streams
           are serialized per channel like the hardware Reader *)
        set_int (c ^ "_req_ready") (if rb.rb_active then 0 else 1);
        match Queue.peek_opt rb.rb_items with
        | Some offset ->
            set_int (c ^ "_data_valid") 1;
            set (c ^ "_data")
              (bits_of_mem soc (rb.rb_base + offset)
                 rb.rb_chan.Config.rc_data_bytes);
            rb.rb_presented <- true
        | None ->
            set_int (c ^ "_data_valid") 0;
            rb.rb_presented <- false)
      st.reads;
    List.iter
      (fun wb ->
        let c = wb.wb_chan.Config.wc_name in
        set_int (c ^ "_req_ready") (if wb.wb_open then 0 else 1);
        set_int (c ^ "_data_ready")
          (if wb.wb_open && wb.wb_unacked < 4 then 1 else 0))
      st.writes;
    Hw.Sim.settle sim;
    (* scratchpad read ports are asynchronous: feed each settled address
       back as data and settle again (addresses must not combinationally
       depend on the returned data) *)
    if st.spads <> [] then begin
      List.iter
        (fun sb ->
          let addr =
            Bits.to_int_trunc (Hw.Sim.output sim (sb.sb_name ^ "_rd_addr"))
          in
          let depth = Soc.Scratchpad.depth sb.sb_spad in
          let row = if addr < depth then addr else 0 in
          let bytes = Soc.Scratchpad.get sb.sb_spad row in
          let bits =
            Bits.concat_list
              (List.init (Bytes.length bytes) (fun i ->
                   Bits.of_int ~width:8
                     (Char.code (Bytes.get bytes (Bytes.length bytes - 1 - i)))))
          in
          set (sb.sb_name ^ "_rd_data") (Bits.resize bits sb.sb_row_bits))
        st.spads;
      Hw.Sim.settle sim
    end;
    (* -- sample handshakes that fire at this edge -- *)
    let req_fired = high sim "req_ready" && !pending_beats <> [] in
    List.iter
      (fun rb ->
        let c = rb.rb_chan.Config.rc_name in
        if (not rb.rb_active) && high sim (c ^ "_req_valid") then begin
          let addr =
            Bits.to_int_trunc (Hw.Sim.output sim (c ^ "_req_addr"))
          in
          let len =
            Bits.to_int_trunc (Hw.Sim.output sim (c ^ "_req_len"))
          in
          rb.rb_base <- addr;
          rb.rb_active <- true;
          Soc.Reader.stream rb.rb_reader ~addr ~bytes:len
            ~on_item:(fun ~offset -> Queue.push offset rb.rb_items)
            ~on_done:(fun () -> rb.rb_active <- false)
            ()
        end;
        if rb.rb_presented && high sim (c ^ "_data_ready") then
          ignore (Queue.pop rb.rb_items))
      st.reads;
    List.iter
      (fun wb ->
        let c = wb.wb_chan.Config.wc_name in
        if (not wb.wb_open) && high sim (c ^ "_req_valid") then begin
          let addr =
            Bits.to_int_trunc (Hw.Sim.output sim (c ^ "_req_addr"))
          in
          let len =
            Bits.to_int_trunc (Hw.Sim.output sim (c ^ "_req_len"))
          in
          wb.wb_open <- true;
          wb.wb_done <- false;
          wb.wb_base <- addr;
          wb.wb_offset <- 0;
          Soc.Writer.begin_txn wb.wb_writer ~addr ~bytes:len
            ~on_done:(fun () ->
              wb.wb_open <- false;
              wb.wb_done <- true)
        end
        else if
          wb.wb_open && wb.wb_unacked < 4 && high sim (c ^ "_data_valid")
        then begin
          let data = Hw.Sim.output sim (c ^ "_data") in
          mem_of_bits soc (wb.wb_base + wb.wb_offset) data;
          wb.wb_offset <- wb.wb_offset + (Bits.width data / 8);
          wb.wb_unacked <- wb.wb_unacked + 1;
          Soc.Writer.push wb.wb_writer ~on_accept:(fun () ->
              wb.wb_unacked <- wb.wb_unacked - 1)
        end)
      st.writes;
    if high sim "resp_valid" && not !responded then begin
      resp_data := Bits.to_int64 (Hw.Sim.output sim "resp_data");
      responded := true
    end;
    Hw.Sim.step sim;
    if req_fired then pending_beats := List.tl !pending_beats;
    (* -- done? -- *)
    let writes_settled = List.for_all (fun wb -> wb.wb_done) st.writes in
    if !responded && writes_settled then respond !resp_data
    else Desim.Engine.schedule ctx.Soc.engine ~delay:ctx.Soc.clock_ps cycle
  in
  cycle ()
