(* Ukkonen's on-line suffix tree construction over integer sequences
   (paper section 2.1.2; Ukkonen 1995). O(n) time and space.

   The element domain is OCaml [int]. Calibro maps each machine instruction
   to an integer (its 32-bit encoding, or a unique separator for
   terminators/PC-relative instructions, see {!Calibro_core.Seq_map});
   separators occur exactly once in the input, so no repeated substring can
   ever contain one — which is how the paper confines repeats to basic
   blocks. A reserved terminal symbol is appended internally; inputs must
   not contain it.

   Everything is flat [int array]s; there is no per-node record and no
   per-node table.

   - Node ids: leaves are [0, n) and leaf [j] is the suffix starting at
     [j] (Ukkonen creates leaves in suffix order); internal nodes are
     [n, n + internal), the root first.
   - Construction keeps per-node edge-label [start] and [parent], per
     internal node edge-label [end] and suffix link, and one
     open-addressed (node, symbol) -> child edge table for the whole
     build. A leaf's label ends at the global end.
   - A single O(n) lowering pass then builds a CSR child list (each
     node's children in one contiguous slice) and flattens the tree into
     post-order arrays in which every internal node's occurrence set is
     one contiguous slice of a shared suffix-index array.

   Construction state (the edge table, labels, links, parents) and the
   child lists are dropped before [build] returns; [t] keeps only the
   text and the post-order arrays that {!fold_repeats} reads.

   Child order. Repeats come out in lowering order, and [Ltbo.detect]'s
   stable candidate sort breaks ties in that order, so the OAT bytes
   depend on it. The committed digests were produced by a construction
   that kept each node's children in a [Hashtbl.create 4] (unseeded) and
   visited them in [Hashtbl.fold] order. The lowering reproduces that
   order exactly:

   - children are ordered by bucket [Hashtbl.hash sym land (b - 1)],
     ascending, where [sym] is the first symbol of the child's edge and
     [b] is the smallest [16 * 2^k] with child count [<= 2 * b] (the
     table's size after its resizes);
   - within a bucket, the key inserted first comes last;
   - a split that replaces a child keeps the old key's position.

   The key inserted first into a node is the one whose subtree holds the
   smallest leaf id (suffix index): every key other than the one a split
   moves down is created by a new leaf, leaves are created in id order,
   and the moved-down subtree holds only older leaves. So insertion order
   is ascending minimum leaf id, which needs no per-edge timestamp. *)

let terminal = min_int
(** Reserved end-of-sequence sentinel (the "$" of Figure 1). *)

type t = {
  text : int array;  (** input plus terminal sentinel *)
  n_nodes : int;
  suffixes : int array;
      (** suffix indices of all leaves, in DFS order: every internal
          node's descendant-leaf set is one slice of it *)
  po_depth : int array;  (** per internal node (root excluded), post-order:
                             string depth *)
  po_lo : int array;     (** slice start into [suffixes] *)
  po_hi : int array;     (** slice end (exclusive) *)
  n_internal : int;      (** internal nodes, root excluded *)
}

let text t = t.text
let input_length t = Array.length t.text - 1
let node_count t = t.n_nodes

let compare_int (a : int) (b : int) = compare a b

(* ---- Construction state ----------------------------------------------- *)

type builder = {
  b_text : int array;
  n : int;  (** text length; also the root's id *)
  mutable start : int array;  (** per node: edge-label start *)
  mutable parent : int array;  (** per node *)
  mutable iend : int array;  (** per internal node (id - n): edge-label end *)
  mutable link : int array;  (** per internal node: suffix link *)
  mutable n_int : int;  (** internal nodes so far, root included *)
  mutable n_leaves : int;
  (* The edge table: open addressing with linear probing. Slot [h] holds
     a child [c] (or -1); its key is [(parent.(c), b_text.(start.(c)))],
     the parent and the first symbol of the edge label. *)
  mutable slots : int array;
  mutable bits : int;  (** log2 of the slot count *)
  mutable n_edges : int;
}

(* Fibonacci hashing of the (node, symbol) pair: the top [bits] bits of a
   63-bit product. *)
let slot_hash ~bits node sym =
  ((sym + (node * 0x2f4a7c15)) * 0x3e3779b97f4a7c15) lsr (63 - bits)

(* The slot holding [node]'s edge on [sym], or the empty slot where it
   would go. *)
let find b node sym =
  let mask = (1 lsl b.bits) - 1 in
  let h = ref (slot_hash ~bits:b.bits node sym) in
  let c = ref (Array.unsafe_get b.slots !h) in
  while
    !c >= 0 && not (b.parent.(!c) = node && b.b_text.(b.start.(!c)) = sym)
  do
    h := (!h + 1) land mask;
    c := Array.unsafe_get b.slots !h
  done;
  !h

(* [child]'s parent and label start must be set. *)
let insert b child =
  let h = find b b.parent.(child) b.b_text.(b.start.(child)) in
  b.slots.(h) <- child;
  b.n_edges <- b.n_edges + 1

(* Keep the load at most 3/4 with room for [k] more edges. *)
let reserve b k =
  if 4 * (b.n_edges + k) > 3 lsl b.bits then begin
    let old = b.slots in
    b.bits <- b.bits + 1;
    b.slots <- Array.make (1 lsl b.bits) (-1);
    b.n_edges <- 0;
    Array.iter (fun c -> if c >= 0 then insert b c) old
  end

let new_leaf b ~start ~parent =
  let id = b.n_leaves in
  b.n_leaves <- id + 1;
  b.start.(id) <- start;
  b.parent.(id) <- parent;
  id

let new_internal b ~start ~end_ ~parent =
  let k = b.n_int in
  if k = Array.length b.iend then begin
    let cap = 2 * k in
    let grow a len fill =
      let a' = Array.make len fill in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    b.start <- grow b.start (b.n + cap) 0;
    b.parent <- grow b.parent (b.n + cap) 0;
    b.iend <- grow b.iend cap 0;
    b.link <- grow b.link cap b.n
  end;
  b.n_int <- k + 1;
  let id = b.n + k in
  b.start.(id) <- start;
  b.parent.(id) <- parent;
  b.iend.(k) <- end_;
  id

let create_builder text =
  let n = Array.length text in
  (* Calibro's sequences branch mostly at the root (every separator is
     unique), so few internal nodes are expected; the arrays grow if the
     input has more. *)
  let icap = max 16 (n / 8) in
  let bits = ref 4 in
  while 3 lsl !bits < 4 * (n + icap) do incr bits done;
  let b =
    { b_text = text; n; start = Array.make (n + icap) 0;
      parent = Array.make (n + icap) 0; iend = Array.make icap 0;
      link = Array.make icap n; n_int = 0; n_leaves = 0;
      slots = Array.make (1 lsl !bits) (-1); bits = !bits; n_edges = 0 }
  in
  ignore (new_internal b ~start:(-1) ~end_:(-1) ~parent:(-1) : int);
  b

(* Ukkonen's phases over [b_text]; leaves the finished tree in [b]. *)
let construct b =
  let text = b.b_text and n = b.n in
  let root = n in
  let active_node = ref root in
  let active_edge = ref 0 (* index into [text] of the edge's first symbol *) in
  let active_length = ref 0 in
  let remaining = ref 0 in
  for i = 0 to n - 1 do
    let cur = text.(i) in
    incr remaining;
    let last_new = ref (-1) in
    let continue_phase = ref true in
    while !remaining > 0 && !continue_phase do
      if !active_length = 0 then active_edge := i;
      reserve b 2;
      let h = find b !active_node text.(!active_edge) in
      let next = b.slots.(h) in
      if next < 0 then begin
        (* Rule 2: no edge starts with text.(i) here; add a leaf. *)
        b.slots.(h) <- new_leaf b ~start:i ~parent:!active_node;
        b.n_edges <- b.n_edges + 1;
        if !last_new >= 0 then begin
          b.link.(!last_new - n) <- !active_node;
          last_new := -1
        end;
        decr remaining;
        (* Move the active point to the next shorter suffix. *)
        if !active_node = root then begin
          if !active_length > 0 then begin
            decr active_length;
            active_edge := i - !remaining + 1
          end
        end
        else active_node := b.link.(!active_node - n)
      end
      else begin
        let s = b.start.(next) in
        let el = (if next < n then i + 1 else b.iend.(next - n)) - s in
        if !active_length >= el then begin
          (* Walk down (skip/count trick). *)
          active_node := next;
          active_edge := !active_edge + el;
          active_length := !active_length - el
        end
        else if text.(s + !active_length) = cur then begin
          (* Rule 3: already present; extend the active point and stop. *)
          if !last_new >= 0 then begin
            b.link.(!last_new - n) <- !active_node;
            last_new := -1
          end;
          incr active_length;
          continue_phase := false
        end
        else begin
          (* Rule 2 with split: the split takes [next]'s slot, so its key
             keeps its place. *)
          let cut = s + !active_length in
          let split =
            new_internal b ~start:s ~end_:cut ~parent:!active_node
          in
          b.slots.(h) <- split;
          b.start.(next) <- cut;
          b.parent.(next) <- split;
          insert b next;
          insert b (new_leaf b ~start:i ~parent:split);
          if !last_new >= 0 then b.link.(!last_new - n) <- split;
          last_new := split;
          decr remaining;
          (* Move the active point to the next shorter suffix. *)
          if !active_node = root then begin
            if !active_length > 0 then begin
              decr active_length;
              active_edge := i - !remaining + 1
            end
          end
          else active_node := b.link.(!active_node - n)
        end
      end
    done
  done

(* ---- Lowering ----------------------------------------------------------- *)

(* [Hashtbl]'s bucket count for a node with [k] children. *)
let bucket_count k =
  let b = ref 16 in
  while k > 2 * !b do b := 2 * !b done;
  !b

(* Stable counting sort of [children.(lo) .. children.(hi - 1)] by
   bucket. [keys] and [tmp] are scratch of at least [hi - lo] slots,
   [counts] of at least [bucket_count (hi - lo)]. *)
let sort_by_bucket ~text ~start children lo hi ~keys ~tmp ~counts =
  let k = hi - lo in
  let mask = bucket_count k - 1 in
  Array.fill counts 0 (mask + 1) 0;
  for j = 0 to k - 1 do
    let key = Hashtbl.hash text.(start.(children.(lo + j))) land mask in
    keys.(j) <- key;
    counts.(key) <- counts.(key) + 1
  done;
  let acc = ref 0 in
  for key = 0 to mask do
    let c = counts.(key) in
    counts.(key) <- !acc;
    acc := !acc + c
  done;
  for j = 0 to k - 1 do
    let key = keys.(j) in
    tmp.(counts.(key)) <- children.(lo + j);
    counts.(key) <- counts.(key) + 1
  done;
  Array.blit tmp 0 children lo k

(* The CSR child lists, each node's children in the order described in
   the header. *)
let child_lists b =
  let n = b.n and n_int = b.n_int and parent = b.parent in
  let root = n in
  let n_nodes = n + n_int in
  (* Smallest leaf id under each internal node: leaves in ascending id,
     each climbing until it meets a node an older leaf already reached. *)
  let min_leaf = Array.make n_int (-1) in
  for j = 0 to n - 1 do
    let x = ref parent.(j) in
    while !x <> root && min_leaf.(!x - n) < 0 do
      min_leaf.(!x - n) <- j;
      x := parent.(!x)
    done
  done;
  let child_off = Array.make (n_int + 1) 0 in
  for c = 0 to n_nodes - 1 do
    if c <> root then begin
      let p = parent.(c) - n + 1 in
      child_off.(p) <- child_off.(p) + 1
    end
  done;
  let max_k = ref 0 in
  for x = 0 to n_int - 1 do
    max_k := max !max_k child_off.(x + 1);
    child_off.(x + 1) <- child_off.(x + 1) + child_off.(x)
  done;
  (* Fill in descending minimum leaf id, i.e. reverse insertion order:
     leaf [j], then the internal nodes whose smallest leaf is [j] (the
     chain it set above). *)
  let children = Array.make (n_nodes - 1) 0 in
  let cursor = Array.sub child_off 0 n_int in
  let push c =
    let p = parent.(c) - n in
    children.(cursor.(p)) <- c;
    cursor.(p) <- cursor.(p) + 1
  in
  for j = n - 1 downto 0 do
    push j;
    let x = ref parent.(j) in
    while !x <> root && min_leaf.(!x - n) = j do
      push !x;
      x := parent.(!x)
    done
  done;
  let keys = Array.make !max_k 0 and tmp = Array.make !max_k 0 in
  let counts = Array.make (bucket_count !max_k) 0 in
  for x = 0 to n_int - 1 do
    let lo = child_off.(x) and hi = child_off.(x + 1) in
    if hi - lo >= 2 then
      sort_by_bucket ~text:b.b_text ~start:b.start children lo hi ~keys ~tmp
        ~counts
  done;
  (child_off, children)

(* One DFS over the CSR lists. Leaves land in [suffixes] in visit order;
   each internal node becomes one post-order slot whose occurrence set is
   the slice its subtree filled. *)
let lower b ~child_off ~children =
  let n = b.n and n_int = b.n_int in
  let root = n in
  let suffixes = Array.make n 0 in
  let n_po = n_int - 1 in
  let po_depth = Array.make n_po 0 in
  let po_lo = Array.make n_po 0 in
  let po_hi = Array.make n_po 0 in
  let next_leaf = ref 0 and next_po = ref 0 in
  (* The stack: a node, its next child's index into [children], its
     string depth and the start of its slice. *)
  let cap = ref 64 in
  let st_node = ref (Array.make !cap 0) and st_next = ref (Array.make !cap 0) in
  let st_depth = ref (Array.make !cap 0) and st_lo = ref (Array.make !cap 0) in
  let sp = ref 0 in
  let push x depth =
    if !sp = !cap then begin
      let grow a = Array.append !a (Array.make !cap 0) in
      st_node := grow st_node;
      st_next := grow st_next;
      st_depth := grow st_depth;
      st_lo := grow st_lo;
      cap := 2 * !cap
    end;
    !st_node.(!sp) <- x;
    !st_next.(!sp) <- child_off.(x - n);
    !st_depth.(!sp) <- depth;
    !st_lo.(!sp) <- !next_leaf;
    incr sp
  in
  push root 0;
  while !sp > 0 do
    let top = !sp - 1 in
    let x = !st_node.(top) in
    let ci = !st_next.(top) in
    if ci < child_off.(x - n + 1) then begin
      !st_next.(top) <- ci + 1;
      let c = children.(ci) in
      if c < n then begin
        suffixes.(!next_leaf) <- c;
        incr next_leaf
      end
      else
        push c (!st_depth.(top) + b.iend.(c - n) - b.start.(c))
    end
    else begin
      (* all children done: the subtree filled [lo, next_leaf) *)
      sp := top;
      if x <> root then begin
        let k = !next_po in
        po_depth.(k) <- !st_depth.(top);
        po_lo.(k) <- !st_lo.(top);
        po_hi.(k) <- !next_leaf;
        next_po := k + 1
      end
    end
  done;
  (suffixes, po_depth, po_lo, po_hi)

let build input =
  Array.iter
    (fun x -> if x = terminal then invalid_arg "Suffix_tree.build: input contains the reserved terminal")
    input;
  let text = Array.append input [| terminal |] in
  let b = create_builder text in
  construct b;
  (* Drop each construction array once nothing below reads it, so the
     GC can reclaim it while the lowering allocates. *)
  b.slots <- [||];
  b.link <- [||];
  let child_off, children = child_lists b in
  b.parent <- [||];
  let suffixes, po_depth, po_lo, po_hi = lower b ~child_off ~children in
  { text; n_nodes = b.n + b.n_int; suffixes; po_depth; po_lo; po_hi;
    n_internal = b.n_int - 1 }

(* ---- Repeats (paper section 2.1.2 / 2.2 step 3) ---------------------- *)

type repeat = {
  length : int;      (** number of elements in the repeated sequence *)
  positions : int array;  (** sorted start positions (may overlap) *)
}

(* Fold over every right-maximal repeated substring: each internal node
   (other than the root) with >= 2 transitively descendant leaves yields a
   repeat whose length is the node's string depth and whose occurrence
   positions are the suffix indices of its descendant leaves. The flat
   post-order arrays make this a linear scan: pruned nodes (outside
   [min_length, max_length]) cost one comparison, and an emitted node costs
   one slice copy + sort instead of a subtree-sized list concatenation. *)
let fold_repeats ?(min_length = 1) ?(max_length = max_int) t ~init ~f =
  let acc = ref init in
  for i = 0 to t.n_internal - 1 do
    let depth = t.po_depth.(i) in
    if depth >= min_length && depth <= max_length then begin
      let lo = t.po_lo.(i) and hi = t.po_hi.(i) in
      if hi - lo >= 2 then begin
        let positions = Array.sub t.suffixes lo (hi - lo) in
        Array.sort compare_int positions;
        acc := f !acc { length = depth; positions }
      end
    end
  done;
  !acc

(* The paper's "small modification" (section 2.1.2: "a small
   modification should be applied to selectively skip such ones") keeps
   the leftmost of each cluster of self-overlapping occurrences; the
   claim filter then drops those that overlap an earlier selection. The
   overlap walk sees every position: an occurrence it keeps ends its run
   even when the claim map then drops it. *)
let select ~claimed ~length positions =
  let out = Array.make (Array.length positions) 0 in
  let k = ref 0 and run_end = ref min_int in
  let rec unclaimed p i =
    i = length || (Bytes.get claimed (p + i) = '\000' && unclaimed p (i + 1))
  in
  Array.iter
    (fun p ->
      if p >= !run_end then begin
        run_end := p + length;
        if unclaimed p 0 then begin
          out.(!k) <- p;
          incr k
        end
      end)
    positions;
  Array.sub out 0 !k
