open Signal

let rules =
  [
    ("undriven-wire", Diag.Error, "a wire with no driver evaluates to X");
    ("comb-loop", Diag.Error, "combinational cycles cannot be scheduled");
    ("dup-output-port", Diag.Error, "output port names must be unique");
    ("no-outputs", Diag.Error, "a circuit must expose at least one output");
    ( "input-width-conflict",
      Diag.Error,
      "one input name used at two different widths" );
    ( "dead-logic",
      Diag.Warning,
      "constructed logic that cannot reach any output is silently dropped" );
    ( "mux-sel-wide",
      Diag.Warning,
      "out-of-range selector encodings clamp to the last case" );
    ( "async-read-mapping",
      Diag.Warning,
      "BRAM/URAM reads are synchronous; large async-read memories only map \
       to distributed RAM" );
    ( "mem-addr-wide",
      Diag.Warning,
      "address bits beyond the memory depth are range-checked at simulation \
       time only" );
    ( "write-port-overlap",
      Diag.Warning,
      "simultaneous writes to one address are last-port-wins" );
    ( "unnamed-state",
      Diag.Info,
      "unnamed registers/memories hurt VCD and Verilog readability" );
    ( "const-foldable",
      Diag.Info,
      "constant subtrees waste nodes; Hw.Opt.constant_fold removes them" );
    ( "read-before-init",
      Diag.Warning,
      "an uninitialized memory read (X under 4-state semantics) reaches an \
       output or a write enable" );
    ( "const-output",
      Diag.Warning,
      "an output is provably constant on every cycle for every input" );
    ( "dead-mux-arm",
      Diag.Warning,
      "a mux selector is provably constant, so the other arms are \
       unreachable" );
    ( "redundant-reset",
      Diag.Info,
      "a register's data input provably equals its reset value, so the \
       clear term does nothing" );
    ( "dataflow-opt-divergence",
      Diag.Error,
      "Hw.Opt and Hw.Dataflow disagree about a constant output — a \
       soundness bug in one of the analyses" );
  ]

let default_lutram_max_bits = 1024

let warn ?loc ?hint rule msg =
  Diag.make ?loc ?hint ~rule ~severity:Diag.Warning msg

let info ?loc ?hint rule msg = Diag.make ?loc ?hint ~rule ~severity:Diag.Info msg

(* bits needed to address [n] mux cases *)
let sel_bits_for n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  max 1 (go 0)

(* ---- rule passes over a well-formed circuit ---- *)

let mux_rules c =
  List.filter_map
    (fun s ->
      match kind s with
      | Mux (sel, cases) ->
          let n = List.length cases in
          let needed = sel_bits_for n in
          if width sel > needed then
            Some
              (warn ~loc:(Circuit.describe s)
                 ~hint:
                   (Printf.sprintf
                      "narrow the selector to %d bit(s) or add the missing \
                       cases"
                      needed)
                 "mux-sel-wide"
                 (Printf.sprintf
                    "%d-bit selector for %d case(s): selector values >= %d \
                     clamp to the last case"
                    (width sel) n n))
          else None
      | _ -> None)
    (Circuit.signals_in_topo_order c)

let memory_rules ~lutram_max_bits c =
  let mems = Circuit.memories c in
  let topo = Circuit.signals_in_topo_order c in
  (* async-read-mapping: one diagnostic per offending memory *)
  let async_read m =
    List.exists
      (fun s ->
        match kind s with
        | Mem_read_async (m', _) -> mem_uid m' = mem_uid m
        | _ -> false)
      topo
  in
  let mapping =
    List.filter_map
      (fun m ->
        let bits = mem_size m * mem_width m in
        if bits > lutram_max_bits && async_read m then
          Some
            (warn
               ~loc:(Printf.sprintf "memory %s" (mem_name m))
               ~hint:"use Mem.read_sync (one-cycle latency) so the memory \
                      can map to BRAM/URAM"
               "async-read-mapping"
               (Printf.sprintf
                  "asynchronous read of a %dx%d memory (%d bits > %d-bit \
                   distributed-RAM budget) cannot map to BRAM/URAM"
                  (mem_size m) (mem_width m) bits lutram_max_bits))
        else None)
      mems
  in
  (* mem-addr-wide: check every port address against the depth *)
  let addr_wide =
    let port_addrs m =
      List.map (fun wp -> ("write", wp.wp_addr)) (mem_write_ports m)
      @ List.filter_map
          (fun s ->
            match kind s with
            | Mem_read_async (m', addr) when mem_uid m' = mem_uid m ->
                Some ("async read", addr)
            | Mem_read_sync (m', addr, _) when mem_uid m' = mem_uid m ->
                Some ("sync read", addr)
            | _ -> None)
          topo
    in
    List.concat_map
      (fun m ->
        let needed = mem_addr_bits m in
        List.filter_map
          (fun (port, addr) ->
            if width addr > needed then
              Some
                (warn
                   ~loc:(Printf.sprintf "memory %s" (mem_name m))
                   ~hint:
                     (Printf.sprintf "truncate the address to %d bit(s)"
                        needed)
                   "mem-addr-wide"
                   (Printf.sprintf
                      "%s port address is %d bits wide but %d entries only \
                       need %d"
                      port (width addr) (mem_size m) needed))
            else None)
          (port_addrs m))
      mems
  in
  (* write-port-overlap: pairwise enables that are not provably exclusive *)
  let never s = match kind s with Const b -> Bits.is_zero b | _ -> false in
  let complementary a b =
    match (kind a, kind b) with
    | Not x, _ when uid x = uid b -> true
    | _, Not x when uid x = uid a -> true
    | Op2 (Eq, x1, c1), Op2 (Eq, x2, c2) -> (
        (* FSM idiom: (state == K1) vs (state == K2), K1 <> K2 *)
        let const_of s = match kind s with Const b -> Some b | _ -> None in
        let subject_const p q =
          match (const_of p, const_of q) with
          | None, Some c -> Some (uid p, c)
          | Some c, None -> Some (uid q, c)
          | _ -> None
        in
        match (subject_const x1 c1, subject_const x2 c2) with
        | Some (s1, k1), Some (s2, k2) -> s1 = s2 && not (Bits.equal k1 k2)
        | _ -> false)
    | _ -> false
  in
  let distinct_const_addrs p q =
    match (kind p.wp_addr, kind q.wp_addr) with
    | Const a, Const b -> not (Bits.equal a b)
    | _ -> false
  in
  let overlap =
    List.concat_map
      (fun m ->
        let ports = Array.of_list (mem_write_ports m) in
        let ds = ref [] in
        for i = 0 to Array.length ports - 1 do
          for j = i + 1 to Array.length ports - 1 do
            let p = ports.(i) and q = ports.(j) in
            if
              not
                (never p.wp_enable || never q.wp_enable
                || complementary p.wp_enable q.wp_enable
                || distinct_const_addrs p q)
            then
              ds :=
                warn
                  ~loc:(Printf.sprintf "memory %s" (mem_name m))
                  ~hint:"gate the enables so at most one port can write a \
                         given address per cycle"
                  "write-port-overlap"
                  (Printf.sprintf
                     "write ports %d and %d have enables that may be high \
                      simultaneously (last port wins on an address clash)"
                     i j)
                :: !ds
          done
        done;
        List.rev !ds)
      mems
  in
  mapping @ addr_wide @ overlap

let naming_rules c =
  let regs = Circuit.registers c in
  let unnamed_regs =
    List.length (List.filter (fun r -> name_of r = None) regs)
  in
  let reg_diag =
    if unnamed_regs = 0 then []
    else
      [
        info ~hint:"name state with Signal.( -- ) and Mem.create ~name"
          "unnamed-state"
          (Printf.sprintf
             "%d of %d register(s) are unnamed and will appear as \
              s_<index> in Verilog output"
             unnamed_regs (List.length regs));
      ]
  in
  let mem_diags =
    List.filter_map
      (fun m ->
        if mem_given_name m = None then
          Some
            (info
               ~loc:(Printf.sprintf "memory %s" (mem_name m))
               ~hint:"pass ~name to Mem.create" "unnamed-state"
               "memory uses an auto-generated name")
        else None)
      (Circuit.memories c)
  in
  reg_diag @ mem_diags

let fold_rule c ~folded =
  let before = Opt.node_count c in
  let after = Opt.node_count folded in
  if after < before then
    [
      info ~hint:"run Hw.Opt.constant_fold before emitting Verilog"
        "const-foldable"
        (Printf.sprintf
           "constant folding would shrink the netlist from %d to %d nodes"
           before after);
    ]
  else []

(* one fold serves [const-foldable] and the dataflow cross-check *)
let circuit ?(lutram_max_bits = default_lutram_max_bits) ~folded lv =
  let c = Levelize.circuit lv in
  let df = Dataflow.run lv in
  mux_rules c
  @ memory_rules ~lutram_max_bits c
  @ naming_rules c @ fold_rule c ~folded @ Dataflow.lint df
  @ Dataflow.crosscheck df ~folded

(* ---- dead logic: needs the set of constructed signals ---- *)

let dead_logic ~tracked c =
  match tracked with
  | [] -> []
  | _ ->
      let reachable = Hashtbl.create 256 in
      List.iter
        (fun s -> Hashtbl.replace reachable (uid s) ())
        (Circuit.signals_in_topo_order c);
      let interesting s =
        name_of s <> None
        ||
        match kind s with
        | Reg _ | Mem_read_async _ | Mem_read_sync _ | Input _ -> true
        | _ -> false
      in
      List.filter_map
        (fun s ->
          if (not (Hashtbl.mem reachable (uid s))) && interesting s then
            Some
              (warn ~loc:(Circuit.describe s)
                 ~hint:"connect it to an output or delete it" "dead-logic"
                 "constructed but cannot reach any circuit output")
          else None)
        tracked

let graph ?(lutram_max_bits = default_lutram_max_bits) ?(tracked = []) ~name
    outputs =
  match Circuit.analyze ~name ~outputs with
  | Error diags -> diags
  | Ok c ->
      circuit ~lutram_max_bits ~folded:(Opt.constant_fold c)
        (Levelize.of_circuit c)
      @ dead_logic ~tracked c
