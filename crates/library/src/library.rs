//! The component library and module-set enumeration.

use std::collections::BTreeMap;
use std::fmt;

use chop_dfg::OpClass;

use crate::module::{HwModule, ModuleKind};

/// Error raised by [`Library`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LibraryError {
    /// Two modules share a name.
    DuplicateName(String),
    /// No module implements the requested operation class.
    NoImplementation(OpClass),
    /// The library has no register module (needed by every datapath).
    NoRegister,
    /// The library has no multiplexer module.
    NoMultiplexer,
}

impl fmt::Display for LibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibraryError::DuplicateName(n) => write!(f, "duplicate module name {n:?}"),
            LibraryError::NoImplementation(c) => {
                write!(f, "library has no module implementing {c}")
            }
            LibraryError::NoRegister => write!(f, "library has no register module"),
            LibraryError::NoMultiplexer => write!(f, "library has no multiplexer module"),
        }
    }
}

impl std::error::Error for LibraryError {}

/// A component library: functional units, a register and a multiplexer.
///
/// The library "generally consists of more than one component which can
/// implement each operation type" (paper §2.2); picking one module per
/// class yields a [`ModuleSet`], and the cartesian product of choices is
/// what BAD sweeps.
///
/// # Examples
///
/// ```
/// use chop_library::standard::table1_library;
/// use chop_dfg::OpClass;
///
/// let lib = table1_library();
/// assert_eq!(lib.candidates(OpClass::Addition).len(), 3);
/// assert!(lib.register().is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Library {
    modules: Vec<HwModule>,
}

impl Library {
    /// Creates an empty library.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a library from modules.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::DuplicateName`] if two modules share a name.
    pub fn from_modules(
        modules: impl IntoIterator<Item = HwModule>,
    ) -> Result<Self, LibraryError> {
        let mut lib = Library::new();
        for m in modules {
            lib.add(m)?;
        }
        Ok(lib)
    }

    /// Adds one module.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::DuplicateName`] if a module with the same
    /// name already exists.
    pub fn add(&mut self, module: HwModule) -> Result<(), LibraryError> {
        if self.modules.iter().any(|m| m.name() == module.name()) {
            return Err(LibraryError::DuplicateName(module.name().to_owned()));
        }
        self.modules.push(module);
        Ok(())
    }

    /// All modules, in insertion order.
    #[must_use]
    pub fn modules(&self) -> &[HwModule] {
        &self.modules
    }

    /// Looks a module up by name.
    #[must_use]
    pub fn by_name(&self, name: &str) -> Option<&HwModule> {
        self.modules.iter().find(|m| m.name() == name)
    }

    /// Functional modules implementing an operation class, fastest first.
    #[must_use]
    pub fn candidates(&self, class: OpClass) -> Vec<&HwModule> {
        let mut v: Vec<&HwModule> =
            self.modules.iter().filter(|m| m.kind().op_class() == Some(class)).collect();
        v.sort_by(|a, b| {
            a.delay().value().partial_cmp(&b.delay().value()).expect("delays are finite")
        });
        v
    }

    /// The register module, if present.
    #[must_use]
    pub fn register(&self) -> Option<&HwModule> {
        self.modules.iter().find(|m| m.kind() == ModuleKind::Register)
    }

    /// The multiplexer module, if present.
    #[must_use]
    pub fn multiplexer(&self) -> Option<&HwModule> {
        self.modules.iter().find(|m| m.kind() == ModuleKind::Multiplexer)
    }

    /// Checks the library can serve a design using the given classes.
    ///
    /// # Errors
    ///
    /// Returns the first missing capability as a [`LibraryError`].
    pub fn check_supports(
        &self,
        classes: impl IntoIterator<Item = OpClass>,
    ) -> Result<(), LibraryError> {
        for class in classes {
            if self.candidates(class).is_empty() {
                return Err(LibraryError::NoImplementation(class));
            }
        }
        if self.register().is_none() {
            return Err(LibraryError::NoRegister);
        }
        if self.multiplexer().is_none() {
            return Err(LibraryError::NoMultiplexer);
        }
        Ok(())
    }

    /// Enumerates every module set over the given operation classes: the
    /// cartesian product of one module choice per class.
    ///
    /// Classes with no candidates produce an empty result. Duplicate
    /// classes in the input are deduplicated.
    ///
    /// # Examples
    ///
    /// ```
    /// use chop_library::standard::table1_library;
    /// use chop_dfg::OpClass;
    ///
    /// let lib = table1_library();
    /// let sets = lib.module_sets([OpClass::Addition]);
    /// assert_eq!(sets.len(), 3);
    /// ```
    #[must_use]
    pub fn module_sets(&self, classes: impl IntoIterator<Item = OpClass>) -> Vec<ModuleSet> {
        let mut unique: Vec<OpClass> = Vec::new();
        for c in classes {
            if !unique.contains(&c) {
                unique.push(c);
            }
        }
        unique.sort();
        let mut sets = vec![ModuleSet::empty()];
        for class in unique {
            let candidates = self.candidates(class);
            if candidates.is_empty() {
                return Vec::new();
            }
            let mut next = Vec::with_capacity(sets.len() * candidates.len());
            for set in &sets {
                for cand in &candidates {
                    let mut s = set.clone();
                    s.choices.insert(class, cand.name().to_owned());
                    next.push(s);
                }
            }
            sets = next;
        }
        sets
    }
}

impl Extend<HwModule> for Library {
    /// Extends the library, panicking on duplicate names.
    fn extend<T: IntoIterator<Item = HwModule>>(&mut self, iter: T) {
        for m in iter {
            self.add(m).expect("duplicate module name in extend");
        }
    }
}

impl fmt::Display for Library {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Library({} modules)", self.modules.len())
    }
}

/// One module choice per operation class.
///
/// # Examples
///
/// ```
/// use chop_library::standard::table1_library;
/// use chop_dfg::OpClass;
///
/// let lib = table1_library();
/// let set = &lib.module_sets([OpClass::Addition, OpClass::Multiplication])[0];
/// let adder = set.module_for(&lib, OpClass::Addition).unwrap();
/// assert!(adder.name().starts_with("add"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleSet {
    choices: BTreeMap<OpClass, String>,
}

impl ModuleSet {
    /// A module set with no choices (for designs with no FU operations).
    #[must_use]
    pub fn empty() -> Self {
        Self { choices: BTreeMap::new() }
    }

    /// A module set from explicit `(class, module name)` choices — the
    /// constructor deserializers use to rebuild a set that was persisted
    /// (e.g. from a prediction-cache snapshot). Later duplicates of a
    /// class override earlier ones.
    #[must_use]
    pub fn from_choices<I, S>(choices: I) -> Self
    where
        I: IntoIterator<Item = (OpClass, S)>,
        S: Into<String>,
    {
        Self { choices: choices.into_iter().map(|(c, n)| (c, n.into())).collect() }
    }

    /// The chosen module name for a class.
    #[must_use]
    pub fn name_for(&self, class: OpClass) -> Option<&str> {
        self.choices.get(&class).map(String::as_str)
    }

    /// Resolves the chosen module for a class against a library.
    #[must_use]
    pub fn module_for<'lib>(
        &self,
        library: &'lib Library,
        class: OpClass,
    ) -> Option<&'lib HwModule> {
        self.name_for(class).and_then(|n| library.by_name(n))
    }

    /// Iterates over `(class, module name)` choices in class order.
    pub fn iter(&self) -> impl Iterator<Item = (OpClass, &str)> + '_ {
        self.choices.iter().map(|(c, n)| (*c, n.as_str()))
    }

    /// Number of classes covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// Whether no classes are covered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }
}

impl fmt::Display for ModuleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.choices.values().map(String::clone).collect();
        write!(f, "{{{}}}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use chop_stat::units::{Bits, Nanos, SquareMils};

    use super::*;
    use crate::standard::table1_library;

    #[test]
    fn duplicate_names_rejected() {
        let m = HwModule::new(
            "x",
            ModuleKind::Register,
            Bits::new(1),
            SquareMils::new(1.0),
            Nanos::new(1.0),
        );
        let mut lib = Library::new();
        lib.add(m.clone()).unwrap();
        assert_eq!(lib.add(m), Err(LibraryError::DuplicateName("x".into())));
    }

    #[test]
    fn candidates_sorted_fastest_first() {
        let lib = table1_library();
        let adders = lib.candidates(OpClass::Addition);
        let delays: Vec<f64> = adders.iter().map(|m| m.delay().value()).collect();
        assert_eq!(delays, vec![34.0, 53.0, 151.0]);
    }

    #[test]
    fn module_sets_cartesian_product() {
        let lib = table1_library();
        let sets = lib.module_sets([OpClass::Addition, OpClass::Multiplication]);
        assert_eq!(sets.len(), 9);
        // All sets are distinct.
        for i in 0..sets.len() {
            for j in (i + 1)..sets.len() {
                assert_ne!(sets[i], sets[j]);
            }
        }
    }

    #[test]
    fn module_sets_dedupe_classes() {
        let lib = table1_library();
        let sets = lib.module_sets([OpClass::Addition, OpClass::Addition]);
        assert_eq!(sets.len(), 3);
    }

    #[test]
    fn module_sets_empty_for_missing_class() {
        let lib = table1_library();
        assert!(lib.module_sets([OpClass::Division]).is_empty());
    }

    #[test]
    fn module_sets_with_no_classes_is_singleton_empty() {
        let lib = table1_library();
        let sets = lib.module_sets([]);
        assert_eq!(sets.len(), 1);
        assert!(sets[0].is_empty());
    }

    #[test]
    fn check_supports_reports_missing() {
        let lib = table1_library();
        assert!(lib.check_supports([OpClass::Addition]).is_ok());
        assert_eq!(
            lib.check_supports([OpClass::Division]),
            Err(LibraryError::NoImplementation(OpClass::Division))
        );
    }

    #[test]
    fn module_set_resolution() {
        let lib = table1_library();
        let sets = lib.module_sets([OpClass::Multiplication]);
        for set in &sets {
            let m = set.module_for(&lib, OpClass::Multiplication).unwrap();
            assert_eq!(m.kind().op_class(), Some(OpClass::Multiplication));
        }
    }
}
