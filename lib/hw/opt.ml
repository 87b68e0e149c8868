open Signal

let node_count c = List.length (Circuit.signals_in_topo_order c)

let eval_op2 op a b =
  match op with
  | Add -> Bits.add a b
  | Sub -> Bits.sub a b
  | Mul -> Bits.mul a b
  | And -> Bits.logand a b
  | Or -> Bits.logor a b
  | Xor -> Bits.logxor a b
  | Eq -> if Bits.equal a b then Bits.one 1 else Bits.zero 1
  | Lt -> if Bits.lt a b then Bits.one 1 else Bits.zero 1

let constant_fold circuit =
  let mapping : (int, Signal.t) Hashtbl.t = Hashtbl.create 256 in
  let mem_mapping : (int, Signal.Mem.mem) Hashtbl.t = Hashtbl.create 8 in
  let const_of s =
    match kind s with Const b -> Some b | _ -> None
  in
  let new_mem m =
    match Hashtbl.find_opt mem_mapping (mem_uid m) with
    | Some nm -> nm
    | None ->
        let nm =
          Mem.create ?name:(mem_given_name m) ~size:(mem_size m)
            ~width:(mem_width m) ()
        in
        Hashtbl.add mem_mapping (mem_uid m) nm;
        nm
  in
  (* pre-create fresh wires so feedback (always through a wire) resolves *)
  let topo = Circuit.signals_in_topo_order circuit in
  List.iter
    (fun s ->
      match kind s with
      | Wire _ -> Hashtbl.add mapping (uid s) (wire (width s))
      | _ -> ())
    topo;
  (* memoized recursive rebuild; cycles always pass through a pre-created
     wire, so the recursion terminates *)
  let rec force s =
    match Hashtbl.find_opt mapping (uid s) with
    | Some s' -> s'
    | None ->
        let s' =
          match kind s with
          | Const b -> const b
          | Input n -> input n (width s)
          | Wire _ -> assert false (* pre-created *)
          | Op2 (op, a, b) -> (
              let a' = force a and b' = force b in
              match (const_of a', const_of b') with
              | Some ca, Some cb -> const (eval_op2 op ca cb)
              | Some ca, None when op = Add && Bits.is_zero ca -> b'
              | None, Some cb when (op = Add || op = Sub) && Bits.is_zero cb
                -> a'
              | Some ca, None when op = And && Bits.is_zero ca ->
                  const (Bits.zero (width s))
              | None, Some cb when op = And && Bits.is_zero cb ->
                  const (Bits.zero (width s))
              | Some ca, None when op = Or && Bits.is_zero ca -> b'
              | None, Some cb when op = Or && Bits.is_zero cb -> a'
              | Some ca, None when op = Mul && Bits.is_zero ca ->
                  const (Bits.zero (width s))
              | None, Some cb when op = Mul && Bits.is_zero cb ->
                  const (Bits.zero (width s))
              | _ -> (
                  match op with
                  | Add -> a' +: b'
                  | Sub -> a' -: b'
                  | Mul -> a' *: b'
                  | And -> a' &: b'
                  | Or -> a' |: b'
                  | Xor -> a' ^: b'
                  | Eq -> a' ==: b'
                  | Lt -> a' <: b'))
          | Not a -> (
              let a' = force a in
              match const_of a' with
              | Some ca -> const (Bits.lognot ca)
              | None -> lnot a')
          | Shift (dir, n, a) -> (
              let a' = force a in
              match const_of a' with
              | Some ca ->
                  const
                    (match dir with
                    | Sll -> Bits.shift_left ca n
                    | Srl -> Bits.shift_right ca n
                    | Sra -> Bits.shift_right_arith ca n)
              | None -> (
                  match dir with
                  | Sll -> sll a' n
                  | Srl -> srl a' n
                  | Sra -> sra a' n))
          | Select (hi, lo, a) -> (
              let a' = force a in
              match const_of a' with
              | Some ca -> const (Bits.slice ca ~hi ~lo)
              | None -> select a' ~hi ~lo)
          | Concat parts -> (
              let parts' = List.map force parts in
              let consts = List.map const_of parts' in
              if List.for_all Option.is_some consts then
                const (Bits.concat_list (List.map Option.get consts))
              else concat parts')
          | Mux (sel, cases) -> (
              let sel' = force sel in
              let cases' = List.map force cases in
              match const_of sel' with
              | Some csel ->
                  List.nth cases'
                    (min (Bits.to_int_trunc csel) (List.length cases' - 1))
              | None -> mux sel' cases')
          | Reg { d; enable; clear; init } ->
              let enable =
                match Option.map force enable with
                | Some e when const_of e = Some (Bits.one 1) -> None
                | e -> e
              in
              let clear =
                match Option.map force clear with
                | Some c when const_of c = Some (Bits.zero 1) -> None
                | c -> c
              in
              reg ?enable ?clear ~init (force d)
          | Mem_read_async (m, addr) ->
              Mem.read_async (new_mem m) ~addr:(force addr)
          | Mem_read_sync (m, addr, enable) ->
              Mem.read_sync (new_mem m) ~enable:(force enable)
                ~addr:(force addr) ()
        in
        let s' = match name_of s with Some n -> s' -- n | None -> s' in
        Hashtbl.add mapping (uid s) s';
        s'
  in
  List.iter (fun s -> ignore (force s)) topo;
  (* resolve wires to their mapped drivers *)
  List.iter
    (fun s ->
      match kind s with
      | Wire r ->
          Signal.assign (Hashtbl.find mapping (uid s)) (force (Option.get !r))
      | _ -> ())
    topo;
  (* memory write ports *)
  List.iter
    (fun m ->
      let nm = new_mem m in
      List.iter
        (fun wp ->
          Mem.write nm ~enable:(force wp.wp_enable) ~addr:(force wp.wp_addr)
            ~data:(force wp.wp_data))
        (mem_write_ports m))
    (Circuit.memories circuit);
  let outputs =
    List.map (fun (n, s) -> (n, force s)) (Circuit.outputs circuit)
  in
  Circuit.create ~name:(Circuit.name circuit) ~outputs
