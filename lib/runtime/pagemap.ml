let page_bytes = 4096
let huge_bytes = 2 * 1024 * 1024
let frames_per_huge = huge_bytes / page_bytes

type mapping = { vaddr : int; bytes : int; hugepages : bool }

type t = {
  (* free 4 KB frame indices, deliberately shuffled to model external
     fragmentation of a long-running system *)
  mutable free_frames : int list;
  (* free hugepage slots (aligned groups of 512 frames) *)
  mutable free_huge : int list;
  (* vpage index -> physical frame *)
  page_table : (int, int) Hashtbl.t;
  mutable next_vaddr : int;
  live : (int, mapping) Hashtbl.t;
}

let create ~phys_bytes () =
  if phys_bytes <= 0 || phys_bytes mod huge_bytes <> 0 then
    invalid_arg "Pagemap.create: phys_bytes must be a multiple of 2MB";
  let n_frames = phys_bytes / page_bytes in
  let n_huge = phys_bytes / huge_bytes in
  (* reserve the second half of memory for hugepages (a hugetlb pool);
     scatter the first half's frames with an LCG permutation *)
  let pool_frames = n_frames / 2 in
  (* deterministic shuffle: stride-97 walk that visits every frame once *)
  let scatter =
    let visited = Array.make pool_frames false in
    let order = ref [] in
    let idx = ref 0 in
    for _ = 1 to pool_frames do
      while visited.(!idx) do
        idx := (!idx + 1) mod pool_frames
      done;
      visited.(!idx) <- true;
      order := !idx :: !order;
      idx := (!idx + 97) mod pool_frames
    done;
    List.rev !order
  in
  {
    free_frames = scatter;
    free_huge = List.init (n_huge / 2) (fun i -> (n_huge / 2) + i);
    page_table = Hashtbl.create 1024;
    next_vaddr = 1 lsl 30;
    live = Hashtbl.create 16;
  }

let cdiv a b = ((a - 1) / b) + 1

let mmap t ?(hugepages = false) bytes =
  if bytes <= 0 then invalid_arg "Pagemap.mmap: bytes";
  let vaddr = t.next_vaddr in
  if hugepages then begin
    let n = cdiv bytes huge_bytes in
    let rec take k acc list =
      if k = 0 then (List.rev acc, list)
      else
        match list with
        | [] -> failwith "Pagemap.mmap: out of hugepages"
        | h :: rest -> take (k - 1) (h :: acc) rest
    in
    let slots, rest = take n [] t.free_huge in
    t.free_huge <- rest;
    List.iteri
      (fun i slot ->
        let base_frame = slot * frames_per_huge in
        for f = 0 to frames_per_huge - 1 do
          Hashtbl.replace t.page_table
            ((vaddr / page_bytes) + (i * frames_per_huge) + f)
            (base_frame + f)
        done)
      slots;
    t.next_vaddr <- vaddr + (n * huge_bytes);
    let m = { vaddr; bytes; hugepages = true } in
    Hashtbl.replace t.live vaddr m;
    m
  end
  else begin
    let n = cdiv bytes page_bytes in
    let rec take k acc list =
      if k = 0 then (List.rev acc, list)
      else
        match list with
        | [] -> failwith "Pagemap.mmap: out of physical frames"
        | h :: rest -> take (k - 1) (h :: acc) rest
    in
    let frames, rest = take n [] t.free_frames in
    t.free_frames <- rest;
    List.iteri
      (fun i frame ->
        Hashtbl.replace t.page_table ((vaddr / page_bytes) + i) frame)
      frames;
    t.next_vaddr <- vaddr + (n * page_bytes);
    let m = { vaddr; bytes; hugepages = false } in
    Hashtbl.replace t.live vaddr m;
    m
  end

let munmap t m =
  if not (Hashtbl.mem t.live m.vaddr) then
    invalid_arg "Pagemap.munmap: not mapped";
  Hashtbl.remove t.live m.vaddr;
  if m.hugepages then begin
    let n = cdiv m.bytes huge_bytes in
    for i = 0 to n - 1 do
      let vp = (m.vaddr / page_bytes) + (i * frames_per_huge) in
      let frame = Hashtbl.find t.page_table vp in
      t.free_huge <- (frame / frames_per_huge) :: t.free_huge;
      for f = 0 to frames_per_huge - 1 do
        Hashtbl.remove t.page_table (vp + f)
      done
    done
  end
  else begin
    let n = cdiv m.bytes page_bytes in
    for i = 0 to n - 1 do
      let vp = (m.vaddr / page_bytes) + i in
      let frame = Hashtbl.find t.page_table vp in
      t.free_frames <- frame :: t.free_frames;
      Hashtbl.remove t.page_table vp
    done
  end

let translate t vaddr =
  let vp = vaddr / page_bytes in
  match Hashtbl.find_opt t.page_table vp with
  | Some frame -> (frame * page_bytes) + (vaddr mod page_bytes)
  | None -> raise Not_found

let phys_regions t m =
  let n = cdiv m.bytes page_bytes in
  let runs = ref [] in
  for i = n - 1 downto 0 do
    let paddr = translate t (m.vaddr + (i * page_bytes)) in
    let len = min page_bytes (m.bytes - (i * page_bytes)) in
    match !runs with
    | (base, rlen) :: rest when paddr + page_bytes = base ->
        runs := (paddr, rlen + len) :: rest
    | _ -> runs := (paddr, len) :: !runs
  done;
  !runs

let physically_contiguous t m = List.length (phys_regions t m) = 1
let frames_free t = List.length t.free_frames
