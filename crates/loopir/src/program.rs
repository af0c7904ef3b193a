//! Programs: arrays with a virtual address layout, plus loop nests.

use crate::affine::{ParamEnv, ParamId};
use crate::nest::{ArrayRef, LoopNest, NestId, RefKind};
use std::collections::HashMap;

/// Identifier of an array within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayId(pub u32);

/// A program array with its virtual placement.
///
/// Per the paper's OS cooperation (§4), the bits of the virtual address
/// that select the MC and LLC bank survive translation, so the virtual
/// layout *is* the physical layout for mapping purposes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Array {
    /// Name for reports.
    pub name: String,
    /// Element size in bytes.
    pub element_bytes: u32,
    /// Number of elements.
    pub extent: u64,
    /// Base byte address (page-aligned).
    pub base: u64,
}

impl Array {
    /// Byte address of element `index`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `index` is out of bounds — an out-of-range
    /// subscript is a workload construction bug.
    pub fn addr_of(&self, index: i64) -> u64 {
        debug_assert!(
            index >= 0 && (index as u64) < self.extent,
            "{}[{index}] out of bounds (extent {})",
            self.name,
            self.extent
        );
        self.base + index as u64 * self.element_bytes as u64
    }

    /// Total footprint in bytes.
    pub fn bytes(&self) -> u64 {
        self.extent * self.element_bytes as u64
    }
}

/// Runtime contents of index arrays, needed to evaluate indirect
/// references. Regular programs use an empty env.
#[derive(Debug, Clone, Default)]
pub struct DataEnv {
    index_arrays: HashMap<ArrayId, Vec<i64>>,
}

impl DataEnv {
    /// An empty environment.
    pub fn new() -> Self {
        DataEnv::default()
    }

    /// Installs the contents of index array `a`.
    pub fn set_index_array(&mut self, a: ArrayId, contents: Vec<i64>) {
        self.index_arrays.insert(a, contents);
    }

    /// Fetches `a[pos]`.
    ///
    /// # Panics
    ///
    /// Panics if the array contents were not installed or `pos` is out of
    /// range.
    pub fn index_value(&self, a: ArrayId, pos: i64) -> i64 {
        let v = self
            .index_arrays
            .get(&a)
            .unwrap_or_else(|| panic!("index array {a:?} not installed in DataEnv"));
        v[pos as usize]
    }

    /// Whether contents for `a` are installed.
    pub fn has(&self, a: ArrayId) -> bool {
        self.index_arrays.contains_key(&a)
    }

    /// All installed index arrays in ascending [`ArrayId`] order. The
    /// deterministic ordering makes the environment content-hashable (the
    /// underlying map iterates in arbitrary order).
    pub fn entries(&self) -> Vec<(ArrayId, &[i64])> {
        let mut v: Vec<(ArrayId, &[i64])> =
            self.index_arrays.iter().map(|(&a, c)| (a, c.as_slice())).collect();
        v.sort_unstable_by_key(|&(a, _)| a);
        v
    }
}

/// A whole application: arrays, loop nests, parameters.
#[derive(Debug, Clone)]
pub struct Program {
    /// Program name (benchmark name in the evaluation).
    pub name: String,
    arrays: Vec<Array>,
    nests: Vec<LoopNest>,
    params: ParamEnv,
    next_param: u32,
    /// Next free virtual address for array allocation.
    cursor: u64,
    /// Page size used for array alignment.
    page_bytes: u64,
}

impl Program {
    /// Creates an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            arrays: Vec::new(),
            nests: Vec::new(),
            params: ParamEnv::new(),
            next_param: 0,
            // Leave page 0 unused so address 0 is never a valid element.
            cursor: 2048,
            page_bytes: 2048,
        }
    }

    /// Declares an array of `extent` elements of `element_bytes` each,
    /// allocated page-aligned after all previous arrays.
    pub fn add_array(&mut self, name: impl Into<String>, element_bytes: u32, extent: u64) -> ArrayId {
        let base = self.cursor;
        let bytes = extent * element_bytes as u64;
        self.cursor = (base + bytes).next_multiple_of(self.page_bytes);
        self.arrays.push(Array { name: name.into(), element_bytes, extent, base });
        ArrayId(self.arrays.len() as u32 - 1)
    }

    /// Declares a fresh symbolic parameter bound to `value`.
    pub fn add_param(&mut self, value: i64) -> ParamId {
        let p = ParamId(self.next_param);
        self.next_param += 1;
        self.params.set(p, value);
        p
    }

    /// Adds a loop nest, returning its id.
    pub fn add_nest(&mut self, nest: LoopNest) -> NestId {
        self.nests.push(nest);
        NestId(self.nests.len() as u32 - 1)
    }

    /// The array table.
    pub fn arrays(&self) -> &[Array] {
        &self.arrays
    }

    /// Looks up an array.
    pub fn array(&self, id: ArrayId) -> &Array {
        &self.arrays[id.0 as usize]
    }

    /// The nest table.
    pub fn nests(&self) -> &[LoopNest] {
        &self.nests
    }

    /// Looks up a nest.
    pub fn nest(&self, id: NestId) -> &LoopNest {
        &self.nests[id.0 as usize]
    }

    /// Iterator over `(NestId, &LoopNest)`.
    pub fn nest_ids(&self) -> impl Iterator<Item = NestId> + '_ {
        (0..self.nests.len() as u32).map(NestId)
    }

    /// Parameter bindings.
    pub fn params(&self) -> ParamEnv {
        self.params.clone()
    }

    /// Total data footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.arrays.iter().map(Array::bytes).sum()
    }

    /// Re-lays out all arrays, inserting `pads[i]` empty pages *before*
    /// array `i`. Bases are recomputed sequentially (page-aligned,
    /// disjoint), so shifting one array shifts all later ones.
    ///
    /// This is the knob data-layout optimizers (the paper's "DO" baseline,
    /// Ding et al. PLDI'15) turn: padding changes which MC/LLC bank each
    /// page of an array falls on, without touching the code.
    ///
    /// # Panics
    ///
    /// Panics if `pads.len()` differs from the number of arrays.
    pub fn relayout(&mut self, pads: &[u64]) {
        assert_eq!(pads.len(), self.arrays.len(), "one pad per array required");
        let mut cursor = self.page_bytes; // page 0 stays unused
        for (a, &pad) in self.arrays.iter_mut().zip(pads) {
            cursor += pad * self.page_bytes;
            a.base = cursor;
            cursor = (cursor + a.bytes()).next_multiple_of(self.page_bytes);
        }
        self.cursor = cursor;
    }

    /// The page size used for array alignment.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Resolves reference `r` at iteration vector `iv` to a byte address.
    ///
    /// # Panics
    ///
    /// Panics if the reference is indirect and `data` lacks the index
    /// array, or if the resolved element is out of bounds (debug builds).
    pub fn resolve(&self, r: &ArrayRef, iv: &[i64], data: &DataEnv) -> u64 {
        let arr = self.array(r.array);
        let elem = match &r.kind {
            RefKind::Affine(e) => e.eval(iv, &self.params),
            RefKind::Indirect { index_array, position, offset } => {
                let pos = position.eval(iv, &self.params);
                data.index_value(*index_array, pos) + offset
            }
        };
        arr.addr_of(elem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::AffineExpr;
    use crate::nest::Access;

    #[test]
    fn arrays_are_page_aligned_and_disjoint() {
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 100); // 800 B
        let b = p.add_array("B", 4, 1000); // 4000 B
        let c = p.add_array("C", 8, 10);
        let (a, b, c) = (p.array(a), p.array(b), p.array(c));
        assert_eq!(a.base % 2048, 0);
        assert_eq!(b.base % 2048, 0);
        assert_eq!(c.base % 2048, 0);
        assert!(a.base + a.bytes() <= b.base);
        assert!(b.base + b.bytes() <= c.base);
        assert!(a.base >= 2048, "page 0 must stay unused");
    }

    #[test]
    fn resolve_affine_ref() {
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 100);
        let base = p.array(a).base;
        let mut nest = LoopNest::rectangular("n", &[100]);
        nest.add_ref(a, AffineExpr::var(0, 1), Access::Read);
        let id = p.add_nest(nest);
        let r = &p.nest(id).refs[0];
        assert_eq!(p.resolve(r, &[7], &DataEnv::new()), base + 56);
    }

    #[test]
    fn resolve_indirect_ref() {
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 100);
        let idx = p.add_array("idx", 4, 10);
        let base = p.array(a).base;
        let mut nest = LoopNest::rectangular("n", &[10]);
        nest.add_indirect_ref(a, idx, AffineExpr::var(0, 1), Access::Write);
        let id = p.add_nest(nest);
        let mut data = DataEnv::new();
        data.set_index_array(idx, vec![5, 4, 3, 2, 1, 0, 9, 8, 7, 6]);
        let r = &p.nest(id).refs[0];
        assert_eq!(p.resolve(r, &[0], &data), base + 40);
        assert_eq!(p.resolve(r, &[6], &data), base + 72);
    }

    #[test]
    fn footprint_sums_arrays() {
        let mut p = Program::new("t");
        p.add_array("A", 8, 100);
        p.add_array("B", 2, 50);
        assert_eq!(p.footprint(), 900);
    }

    #[test]
    fn params_bind_through_program() {
        let mut p = Program::new("t");
        let n = p.add_param(64);
        assert_eq!(p.params().value(n), 64);
    }

    #[test]
    #[should_panic]
    fn missing_index_array_panics() {
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 10);
        let idx = p.add_array("idx", 4, 10);
        let mut nest = LoopNest::rectangular("n", &[10]);
        nest.add_indirect_ref(a, idx, AffineExpr::var(0, 1), Access::Read);
        let id = p.add_nest(nest);
        let r = &p.nest(id).refs[0];
        p.resolve(r, &[0], &DataEnv::new());
    }
}
