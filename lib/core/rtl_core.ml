(* Bridge between an RTL core (simulated by Hw.Compile) and the
   transaction-level SoC: the composer-generated glue a Beethoven user
   never writes by hand. In steady state a cycle allocates nothing: ports
   are handles resolved once per core, the request beat is driven only
   when it changes, and a data port is re-boxed only when its bytes
   change. *)

(* Every port is resolved to a {!Hw.Compile} handle once per core. An
   input the netlist does not read was folded away and is [None]: the
   bridge does not drive it. The bytes a data port holds are mirrored
   ([rb_beat], [sb_row]) so a value is boxed into [Bits] only when it
   changes; a compiled input starts at zero, and so does its mirror. *)
type read_bridge = {
  rb_reader : Soc.Reader.r;
  rb_req_valid : Hw.Compile.out_port;
  rb_req_addr : Hw.Compile.out_port;
  rb_req_len : Hw.Compile.out_port;
  rb_data_ready : Hw.Compile.out_port;
  rb_req_ready : Hw.Compile.in_port option;
  rb_data_valid : Hw.Compile.in_port option;
  rb_data : Hw.Compile.in_port option;
  rb_fetch : Bytes.t; (* the presented item, copied out of memory *)
  rb_beat : Bytes.t; (* the bytes on the data port *)
  rb_items : int Queue.t; (* offsets whose data has arrived *)
  mutable rb_base : int; (* base address of the active stream *)
  mutable rb_presented : bool; (* data_valid currently asserted *)
  mutable rb_active : bool; (* a stream is in flight *)
}

type write_bridge = {
  wb_writer : Soc.Writer.w;
  wb_req_valid : Hw.Compile.out_port;
  wb_req_addr : Hw.Compile.out_port;
  wb_req_len : Hw.Compile.out_port;
  wb_data_valid : Hw.Compile.out_port;
  wb_data : Hw.Compile.out_port;
  wb_req_ready : Hw.Compile.in_port option;
  wb_data_ready : Hw.Compile.in_port option;
  mutable wb_base : int;
  mutable wb_offset : int;
  mutable wb_open : bool; (* a transaction is open *)
  mutable wb_done : bool; (* last opened txn fully responded *)
  mutable wb_unacked : int; (* pushes not yet accepted by the writer *)
  mutable wb_on_accept : unit -> unit; (* one push admitted *)
}

type spad_bridge = {
  sb_spad : Soc.Scratchpad.sp;
  sb_rd_addr : Hw.Compile.out_port;
  sb_rd_data : Hw.Compile.in_port;
  sb_row : Bytes.t; (* the bytes on the rd_data port *)
}

type core_state = {
  sim : Hw.Compile.t;
  req_valid : Hw.Compile.in_port option;
  req_funct : Hw.Compile.in_port option;
  req_p1 : Hw.Compile.in_port option;
  req_p2 : Hw.Compile.in_port option;
  resp_ready : Hw.Compile.in_port option;
  req_ready : Hw.Compile.out_port;
  resp_valid : Hw.Compile.out_port;
  resp_data : Hw.Compile.out_port;
  reads : read_bridge array;
  writes : write_bridge array;
  spads : spad_bridge array;
}

(* The core's simulator and its port handles. *)
let bridge (ctx : Soc.ctx) =
  let sys = ctx.Soc.system in
  let circuit =
    match sys.Config.kernel_circuit with
    | Some c -> c
    | None ->
        failwith
          (Printf.sprintf "Rtl_core: system %s declares no kernel_circuit"
             sys.Config.sys_name)
  in
  let sim = Hw.Compile.create circuit in
  (* outputs are mandatory (the fabric samples them); an input the
     netlist does not read was constant-folded away and is not
     driven *)
  let out name =
    try Hw.Compile.out_port sim name
    with Not_found ->
      failwith
        (Printf.sprintf "Rtl_core: circuit %s is missing output port %S"
           (Hw.Circuit.name circuit) name)
  in
  let inp name =
    try Some (Hw.Compile.in_port sim name) with Not_found -> None
  in
  (* a data port's zeroed mirror; driving the port with it changes
     nothing but checks the port's width *)
  let mirror port bytes =
    let b = Bytes.make bytes '\000' in
    Option.iter (fun p -> Hw.Compile.set sim p (Bits.of_bytes b)) port;
    b
  in
  let req_ready = out "req_ready" in
  let resp_valid = out "resp_valid" in
  let resp_data = out "resp_data" in
  let reads =
    List.map
      (fun (rc : Config.read_channel) ->
        let c = rc.Config.rc_name in
        let req_valid = out (c ^ "_req_valid") in
        let req_addr = out (c ^ "_req_addr") in
        let req_len = out (c ^ "_req_len") in
        let data = inp (c ^ "_data") in
        {
          rb_reader = Soc.reader ctx c;
          rb_req_valid = req_valid;
          rb_req_addr = req_addr;
          rb_req_len = req_len;
          rb_data_ready = out (c ^ "_data_ready");
          rb_req_ready = inp (c ^ "_req_ready");
          rb_data_valid = inp (c ^ "_data_valid");
          rb_data = data;
          rb_fetch = Bytes.create rc.Config.rc_data_bytes;
          rb_beat = mirror data rc.Config.rc_data_bytes;
          rb_items = Queue.create ();
          rb_base = 0;
          rb_presented = false;
          rb_active = false;
        })
      sys.Config.read_channels
  in
  let writes =
    List.map
      (fun (wc : Config.write_channel) ->
        let c = wc.Config.wc_name in
        let req_valid = out (c ^ "_req_valid") in
        let req_addr = out (c ^ "_req_addr") in
        let req_len = out (c ^ "_req_len") in
        let data_valid = out (c ^ "_data_valid") in
        let wb =
          {
            wb_writer = Soc.writer ctx c;
            wb_req_valid = req_valid;
            wb_req_addr = req_addr;
            wb_req_len = req_len;
            wb_data_valid = data_valid;
            wb_data = out (c ^ "_data");
            wb_req_ready = inp (c ^ "_req_ready");
            wb_data_ready = inp (c ^ "_data_ready");
            wb_base = 0;
            wb_offset = 0;
            wb_open = false;
            wb_done = true;
            wb_unacked = 0;
            wb_on_accept = ignore;
          }
        in
        wb.wb_on_accept <- (fun () -> wb.wb_unacked <- wb.wb_unacked - 1);
        wb)
      sys.Config.write_channels
  in
  (* scratchpads with RTL read ports: <name>_rd_addr / <name>_rd_data *)
  let spads =
    List.filter_map
      (fun (sp : Config.scratchpad) ->
        let nm = sp.Config.sp_name in
        match Hw.Compile.out_port sim (nm ^ "_rd_addr") with
        | exception Not_found -> None
        | rd_addr ->
            let rd_data =
              match inp (nm ^ "_rd_data") with
              | Some p -> p
              | None ->
                  failwith
                    (Printf.sprintf
                       "Rtl_core: %s_rd_addr without a %s_rd_data input"
                       nm nm)
            in
            let spad = Soc.scratchpad ctx nm in
            Some
              {
                sb_spad = spad;
                sb_rd_addr = rd_addr;
                sb_rd_data = rd_data;
                (* one row wide *)
                sb_row =
                  mirror (Some rd_data)
                    (Bytes.length (Soc.Scratchpad.get spad 0));
              })
      sys.Config.scratchpads
  in
  {
    sim;
    req_valid = inp "req_valid";
    req_funct = inp "req_funct";
    req_p1 = inp "req_p1";
    req_p2 = inp "req_p2";
    resp_ready = inp "resp_ready";
    req_ready;
    resp_valid;
    resp_data;
    reads = Array.of_list reads;
    writes = Array.of_list writes;
    spads = Array.of_list spads;
  }

let set sim port v =
  match port with Some p -> Hw.Compile.set sim p v | None -> ()

let set_int sim port v =
  match port with Some p -> Hw.Compile.set_int sim p v | None -> ()

let high sim port = Hw.Compile.get_int sim port = 1

(* an address or length port, of any width *)
let read_int = Hw.Compile.get_int

let drive_beat st (beat : Rocc.t) =
  let sim = st.sim in
  set_int sim st.req_valid 1;
  set_int sim st.req_funct beat.Rocc.funct;
  set sim st.req_p1 (Bits.of_int64 ~width:64 beat.Rocc.payload1);
  set sim st.req_p2 (Bits.of_int64 ~width:64 beat.Rocc.payload2)

(* present the head item of a read channel, boxing its bytes only when
   they differ from the ones the data port holds *)
let present soc sim rb offset =
  set_int sim rb.rb_data_valid 1;
  Soc.blit_out soc ~src_addr:(rb.rb_base + offset) ~dst:rb.rb_fetch;
  if not (Bytes.equal rb.rb_fetch rb.rb_beat) then begin
    Bytes.blit rb.rb_fetch 0 rb.rb_beat 0 (Bytes.length rb.rb_beat);
    set sim rb.rb_data (Bits.of_bytes rb.rb_beat)
  end;
  rb.rb_presented <- true

(* scratchpad read ports are asynchronous: feed the settled address's
   row back as data, when its bytes differ from the ones on the port *)
let feed_spad sim sb =
  let addr = read_int sim sb.sb_rd_addr in
  let depth = Soc.Scratchpad.depth sb.sb_spad in
  let row = if addr < depth then addr else 0 in
  if Soc.Scratchpad.load_row sb.sb_spad row sb.sb_row then
    Hw.Compile.set sim sb.sb_rd_data (Bits.of_bytes sb.sb_row)

let start_stream sim rb =
  let addr = read_int sim rb.rb_req_addr in
  let len = read_int sim rb.rb_req_len in
  rb.rb_base <- addr;
  rb.rb_active <- true;
  Soc.Reader.stream rb.rb_reader ~addr ~bytes:len
    ~on_item:(fun ~offset -> Queue.push offset rb.rb_items)
    ~on_done:(fun () -> rb.rb_active <- false)
    ()

let open_txn sim wb =
  let addr = read_int sim wb.wb_req_addr in
  let len = read_int sim wb.wb_req_len in
  wb.wb_open <- true;
  wb.wb_done <- false;
  wb.wb_base <- addr;
  wb.wb_offset <- 0;
  Soc.Writer.begin_txn wb.wb_writer ~addr ~bytes:len ~on_done:(fun () ->
      wb.wb_open <- false;
      wb.wb_done <- true)

let push_beat soc sim wb =
  let data = Hw.Compile.get sim wb.wb_data in
  Soc.blit_in soc ~src:(Bits.to_bytes data) ~dst_addr:(wb.wb_base + wb.wb_offset);
  wb.wb_offset <- wb.wb_offset + (Bits.width data / 8);
  wb.wb_unacked <- wb.wb_unacked + 1;
  Soc.Writer.push wb.wb_writer ~on_accept:wb.wb_on_accept

(* The bridge is built at the core's first command and lives in this
   closure, as long as the core's SoC. *)
let behavior : Soc.behavior =
 fun ctx ->
  let st = lazy (bridge ctx) in
  fun beats ~respond ->
    let st = Lazy.force st in
    let sim = st.sim in
    let soc = ctx.Soc.soc in
    let pending_beats = ref beats in
    (* the head of [pending_beats] is on the request ports *)
    let beat_driven = ref false in
    let resp_data = ref 0L in
    let responded = ref false in
    let budget = ref 10_000_000 in
    set_int sim st.resp_ready 1;
    let rec cycle () =
      decr budget;
      if !budget <= 0 then
        failwith "Rtl_core: core never responded (cycle budget exhausted)";
      (* -- drive inputs for this cycle -- *)
      if not !beat_driven then begin
        (match !pending_beats with
        | beat :: _ -> drive_beat st beat
        | [] -> set_int sim st.req_valid 0);
        beat_driven := true
      end;
      for i = 0 to Array.length st.reads - 1 do
        let rb = st.reads.(i) in
        (* request port accepted only while the Reader is idle; streams
           are serialized per channel like the hardware Reader *)
        set_int sim rb.rb_req_ready (if rb.rb_active then 0 else 1);
        if Queue.is_empty rb.rb_items then begin
          set_int sim rb.rb_data_valid 0;
          rb.rb_presented <- false
        end
        else present soc sim rb (Queue.peek rb.rb_items)
      done;
      for i = 0 to Array.length st.writes - 1 do
        let wb = st.writes.(i) in
        set_int sim wb.wb_req_ready (if wb.wb_open then 0 else 1);
        set_int sim wb.wb_data_ready
          (if wb.wb_open && wb.wb_unacked < 4 then 1 else 0)
      done;
      Hw.Compile.settle sim;
      (* the fed rows settle again (addresses must not combinationally
         depend on the returned data) *)
      if Array.length st.spads > 0 then begin
        for i = 0 to Array.length st.spads - 1 do
          feed_spad sim st.spads.(i)
        done;
        Hw.Compile.settle sim
      end;
      (* -- sample handshakes that fire at this edge -- *)
      let req_fired = high sim st.req_ready && !pending_beats <> [] in
      for i = 0 to Array.length st.reads - 1 do
        let rb = st.reads.(i) in
        if (not rb.rb_active) && high sim rb.rb_req_valid then
          start_stream sim rb;
        if rb.rb_presented && high sim rb.rb_data_ready then
          ignore (Queue.pop rb.rb_items)
      done;
      for i = 0 to Array.length st.writes - 1 do
        let wb = st.writes.(i) in
        if (not wb.wb_open) && high sim wb.wb_req_valid then open_txn sim wb
        else if wb.wb_open && wb.wb_unacked < 4 && high sim wb.wb_data_valid
        then push_beat soc sim wb
      done;
      if high sim st.resp_valid && not !responded then begin
        resp_data := Bits.to_int64 (Hw.Compile.get sim st.resp_data);
        responded := true
      end;
      Hw.Compile.step sim;
      if req_fired then begin
        pending_beats := List.tl !pending_beats;
        beat_driven := false
      end;
      (* -- done? -- *)
      if !responded && Array.for_all (fun wb -> wb.wb_done) st.writes then
        respond !resp_data
      else Desim.Engine.schedule ctx.Soc.engine ~delay:ctx.Soc.clock_ps cycle
    in
    cycle ()
