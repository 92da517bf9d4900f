package smg98

import (
	"dynprof/internal/guide"
	"dynprof/internal/mpi"
)

// kernel is the per-rank benchmark state.
type kernel struct {
	c    *guide.Ctx
	m    *mpi.Ctx
	rank int
	size int
}

// call routes a function invocation through the instrumentation call gate.
func (k *kernel) call(f guide.Fn, fn func()) { k.c.Call(f, fn) }

// work charges application cycles to the rank's virtual clock.
func (k *kernel) work(cycles int64) { k.c.T.Work(cycles) }

// funcs is Smg98's 199-function table ("Smg98 contains 199
// functions"), grouped by module. Sizes are image words (code extent).
var funcs guide.FuncTable

// Call-gate handles, one per function, in table order.
var (
	// box / index utilities
	smgIndexCopy    = funcs.Add("smg_IndexCopy", 6)
	smgIndexAdd     = funcs.Add("smg_IndexAdd", 8)
	smgIndexShift   = funcs.Add("smg_IndexShift", 7)
	smgIndexMin     = funcs.Add("smg_IndexMin", 10)
	smgIndexMax     = funcs.Add("smg_IndexMax", 10)
	smgIndexEqual   = funcs.Add("smg_IndexEqual", 8)
	smgBoxCreate    = funcs.Add("smg_BoxCreate", 8)
	smgBoxVolume    = funcs.Add("smg_BoxVolume", 12)
	smgBoxNumPlanes = funcs.Add("smg_BoxNumPlanes", 7)
	smgBoxGrow      = funcs.Add("smg_BoxGrow", 10)
	smgBoxShrink    = funcs.Add("smg_BoxShrink", 10)
	smgBoxShiftPos  = funcs.Add("smg_BoxShiftPos", 8)
	smgBoxShiftNeg  = funcs.Add("smg_BoxShiftNeg", 8)
	smgBoxIntersect = funcs.Add("smg_BoxIntersect", 16)
	smgBoxContains  = funcs.Add("smg_BoxContains", 10)
	smgBoxPlane     = funcs.Add("smg_BoxPlane", 8)
	smgBoxCoarsenZ  = funcs.Add("smg_BoxCoarsenZ", 9)
	smgBoxRefineZ   = funcs.Add("smg_BoxRefineZ", 9)
	smgBoxCheck     = funcs.Add("smg_BoxCheck", 8)
	// vector module
	smgVectorCreate      = funcs.Add("smg_VectorCreate", 20)
	smgVectorInitialize  = funcs.Add("smg_VectorInitialize", 12)
	smgVectorSetConstant = funcs.Add("smg_VectorSetConstant", 14)
	smgVectorCopy        = funcs.Add("smg_VectorCopy", 10)
	smgVectorClear       = funcs.Add("smg_VectorClear", 10)
	smgVectorScale       = funcs.Add("smg_VectorScale", 12)
	smgVectorAxpy        = funcs.Add("smg_VectorAxpy", 14)
	smgVectorLocalDot    = funcs.Add("smg_VectorLocalDot", 16)
	smgVectorInnerProd   = funcs.Add("smg_VectorInnerProd", 12)
	smgVectorLocalMaxAbs = funcs.Add("smg_VectorLocalMaxAbs", 14)
	smgVectorMaxAbs      = funcs.Add("smg_VectorMaxAbs", 10)
	smgVectorPlaneCopy   = funcs.Add("smg_VectorPlaneCopy", 12)
	smgVectorPlaneClear  = funcs.Add("smg_VectorPlaneClear", 10)
	smgVectorPlaneAxpy   = funcs.Add("smg_VectorPlaneAxpy", 14)
	smgVectorPlaneDot    = funcs.Add("smg_VectorPlaneDot", 14)
	smgVectorGhostClear  = funcs.Add("smg_VectorGhostClear", 12)
	smgVectorSetSeeded   = funcs.Add("smg_VectorSetSeeded", 18)
	smgVectorVolume      = funcs.Add("smg_VectorVolume", 6)
	smgVectorCheckFinite = funcs.Add("smg_VectorCheckFinite", 12)
	smgVectorNorm        = funcs.Add("smg_VectorNorm", 10)
	// stencil module
	smgStencilCreate      = funcs.Add("smg_StencilCreate", 10)
	smgStencilSize        = funcs.Add("smg_StencilSize", 5)
	smgStencilOffset      = funcs.Add("smg_StencilOffset", 9)
	smgStencilCoeffCenter = funcs.Add("smg_StencilCoeffCenter", 5)
	smgStencilCoeffXY     = funcs.Add("smg_StencilCoeffXY", 5)
	smgStencilCoeffZ      = funcs.Add("smg_StencilCoeffZ", 5)
	smgStencilDiagonal    = funcs.Add("smg_StencilDiagonal", 5)
	smgStencilCoarsenZ    = funcs.Add("smg_StencilCoarsenZ", 14)
	smgStencilApplyPlane  = funcs.Add("smg_StencilApplyPlane", 30)
	smgStencilCheck       = funcs.Add("smg_StencilCheck", 8)
	// communication module
	smgNeighborRank       = funcs.Add("smg_NeighborRank", 7)
	smgCommPlaneBytes     = funcs.Add("smg_CommPlaneBytes", 6)
	smgCommPkgCreate      = funcs.Add("smg_CommPkgCreate", 18)
	smgCommPkgDestroy     = funcs.Add("smg_CommPkgDestroy", 8)
	smgPackPlaneLow       = funcs.Add("smg_PackPlaneLow", 14)
	smgPackPlaneHigh      = funcs.Add("smg_PackPlaneHigh", 14)
	smgUnpackPlaneLow     = funcs.Add("smg_UnpackPlaneLow", 14)
	smgUnpackPlaneHigh    = funcs.Add("smg_UnpackPlaneHigh", 14)
	smgPostRecvLow        = funcs.Add("smg_PostRecvLow", 10)
	smgPostRecvHigh       = funcs.Add("smg_PostRecvHigh", 10)
	smgSendPlaneLow       = funcs.Add("smg_SendPlaneLow", 10)
	smgSendPlaneHigh      = funcs.Add("smg_SendPlaneHigh", 10)
	smgWaitRecvLow        = funcs.Add("smg_WaitRecvLow", 10)
	smgWaitRecvHigh       = funcs.Add("smg_WaitRecvHigh", 10)
	smgCommHandleCreate   = funcs.Add("smg_CommHandleCreate", 10)
	smgCommHandleFinalize = funcs.Add("smg_CommHandleFinalize", 10)
	smgExchangeBegin      = funcs.Add("smg_ExchangeBegin", 12)
	smgExchangeEnd        = funcs.Add("smg_ExchangeEnd", 10)
	smgExchangeGhost      = funcs.Add("smg_ExchangeGhost", 10)
	smgGlobalSum          = funcs.Add("smg_GlobalSum", 8)
	smgGlobalMax          = funcs.Add("smg_GlobalMax", 8)
	// grid / setup module
	smgGridCreate         = funcs.Add("smg_GridCreate", 16)
	smgGridLocalExtents   = funcs.Add("smg_GridLocalExtents", 6)
	smgGridGlobalSize     = funcs.Add("smg_GridGlobalSize", 7)
	smgGridVolume         = funcs.Add("smg_GridVolume", 6)
	smgGridPlaneSize      = funcs.Add("smg_GridPlaneSize", 6)
	smgGridCoarsenZ       = funcs.Add("smg_GridCoarsenZ", 12)
	smgGridNumLevels      = funcs.Add("smg_GridNumLevels", 10)
	smgGridCheck          = funcs.Add("smg_GridCheck", 8)
	smgLevelCreate        = funcs.Add("smg_LevelCreate", 14)
	smgLevelVectorsCreate = funcs.Add("smg_LevelVectorsCreate", 16)
	smgLevelCommCreate    = funcs.Add("smg_LevelCommCreate", 10)
	smgLevelDestroy       = funcs.Add("smg_LevelDestroy", 10)
	smgSetupStencils      = funcs.Add("smg_SetupStencils", 14)
	smgInterpWeightAt     = funcs.Add("smg_InterpWeightAt", 6)
	smgRestrictWeightAt   = funcs.Add("smg_RestrictWeightAt", 6)
	smgSetupInterp        = funcs.Add("smg_SetupInterp", 8)
	smgSetupRestrict      = funcs.Add("smg_SetupRestrict", 8)
	smgSetupRAP           = funcs.Add("smg_SetupRAP", 12)
	smgSetupRHS           = funcs.Add("smg_SetupRHS", 10)
	smgSetupInitialGuess  = funcs.Add("smg_SetupInitialGuess", 10)
	smgSetupWorkspace     = funcs.Add("smg_SetupWorkspace", 8)
	smgSetupBoundary      = funcs.Add("smg_SetupBoundary", 10)
	smgPartitionGrid      = funcs.Add("smg_PartitionGrid", 12)
	smgValidatePartition  = funcs.Add("smg_ValidatePartition", 14)
	smgDataSize           = funcs.Add("smg_DataSize", 8)
	smgMemoryEstimate     = funcs.Add("smg_MemoryEstimate", 6)
	smgHierarchyCreate    = funcs.Add("smg_HierarchyCreate", 24)
	smgInitCoefficients   = funcs.Add("smg_InitCoefficients", 10)
	smgCheckSetup         = funcs.Add("smg_CheckSetup", 12)
	smgFinalizeSetup      = funcs.Add("smg_FinalizeSetup", 8)
	smgProblemSetup       = funcs.Add("smg_ProblemSetup", 18)
	smgProblemDestroy     = funcs.Add("smg_ProblemDestroy", 8)
	// matrix module
	smgMatrixCreate             = funcs.Add("smg_MatrixCreate", 12)
	smgMatrixInitialize         = funcs.Add("smg_MatrixInitialize", 8)
	smgMatrixSetConstantEntries = funcs.Add("smg_MatrixSetConstantEntries", 10)
	smgMatrixSetBoundary        = funcs.Add("smg_MatrixSetBoundary", 8)
	smgMatrixAssemble           = funcs.Add("smg_MatrixAssemble", 12)
	smgMatrixGrid               = funcs.Add("smg_MatrixGrid", 5)
	smgMatrixStencil            = funcs.Add("smg_MatrixStencil", 5)
	smgMatrixNumGhost           = funcs.Add("smg_MatrixNumGhost", 5)
	smgMatrixVolume             = funcs.Add("smg_MatrixVolume", 7)
	smgMatrixEntryCount         = funcs.Add("smg_MatrixEntryCount", 6)
	smgMatrixDiagonal           = funcs.Add("smg_MatrixDiagonal", 6)
	smgMatrixApplyPlane         = funcs.Add("smg_MatrixApplyPlane", 10)
	smgMatrixRowSumPlane        = funcs.Add("smg_MatrixRowSumPlane", 10)
	smgMatrixSymmetryCheck      = funcs.Add("smg_MatrixSymmetryCheck", 10)
	smgMatrixFrobeniusLocal     = funcs.Add("smg_MatrixFrobeniusLocal", 12)
	smgMatrixFrobenius          = funcs.Add("smg_MatrixFrobenius", 8)
	smgMatrixConditionEstimate  = funcs.Add("smg_MatrixConditionEstimate", 10)
	smgMatrixScale              = funcs.Add("smg_MatrixScale", 8)
	smgMatrixCopy               = funcs.Add("smg_MatrixCopy", 10)
	smgMatrixCoarsen            = funcs.Add("smg_MatrixCoarsen", 12)
	smgMatrixDestroy            = funcs.Add("smg_MatrixDestroy", 6)
	smgMatrixCheck              = funcs.Add("smg_MatrixCheck", 12)
	// solver module (the paper's "multigrid solver" subset lives here
	// plus the hot communication/vector/stencil routines above)
	smgRelaxWeight         = funcs.Add("smg_RelaxWeight", 6)
	smgPlaneBoxAt          = funcs.Add("smg_PlaneBoxAt", 9)
	smgPlaneOffsets        = funcs.Add("smg_PlaneOffsets", 10)
	smgPlaneCoeffs         = funcs.Add("smg_PlaneCoeffs", 9)
	smgRelaxPlaneInterior  = funcs.Add("smg_RelaxPlaneInterior", 34)
	smgRelaxPlaneBoundary  = funcs.Add("smg_RelaxPlaneBoundary", 26)
	smgUpdateSolutionPlane = funcs.Add("smg_UpdateSolutionPlane", 8)
	smgApplyBCPlane        = funcs.Add("smg_ApplyBCPlane", 12)
	smgRelaxPlane          = funcs.Add("smg_RelaxPlane", 14)
	smgRelaxSweep          = funcs.Add("smg_RelaxSweep", 12)
	smgRelax               = funcs.Add("smg_Relax", 8)
	smgPreRelax            = funcs.Add("smg_PreRelax", 6)
	smgPostRelax           = funcs.Add("smg_PostRelax", 6)
	smgResidualPlane       = funcs.Add("smg_ResidualPlane", 18)
	smgResidual            = funcs.Add("smg_Residual", 10)
	smgResidualNorm        = funcs.Add("smg_ResidualNorm", 8)
	smgZeroCoarse          = funcs.Add("smg_ZeroCoarse", 6)
	smgRestrictPlane       = funcs.Add("smg_RestrictPlane", 22)
	smgRestrict            = funcs.Add("smg_Restrict", 10)
	smgInterpPlaneEven     = funcs.Add("smg_InterpPlaneEven", 16)
	smgInterpPlaneOdd      = funcs.Add("smg_InterpPlaneOdd", 18)
	smgInterpAdd           = funcs.Add("smg_InterpAdd", 10)
	smgCoarseSolve         = funcs.Add("smg_CoarseSolve", 10)
	smgLevelDown           = funcs.Add("smg_LevelDown", 8)
	smgLevelUp             = funcs.Add("smg_LevelUp", 8)
	smgCycleDown           = funcs.Add("smg_CycleDown", 8)
	smgCycleUp             = funcs.Add("smg_CycleUp", 8)
	smgVCycle              = funcs.Add("smg_VCycle", 8)
	smgConvergenceCheck    = funcs.Add("smg_ConvergenceCheck", 8)
	smgIterationUpdate     = funcs.Add("smg_IterationUpdate", 5)
	smgLogIteration        = funcs.Add("smg_LogIteration", 8)
	smgErrorEstimate       = funcs.Add("smg_ErrorEstimate", 10)
	smgSolve               = funcs.Add("smg_Solve", 16)
	// driver module
	smgTimerCreate        = funcs.Add("smg_TimerCreate", 8)
	smgWallClock          = funcs.Add("smg_WallClock", 5)
	smgTimerStart         = funcs.Add("smg_TimerStart", 6)
	smgTimerStop          = funcs.Add("smg_TimerStop", 7)
	smgTimerReset         = funcs.Add("smg_TimerReset", 5)
	smgTimerElapsed       = funcs.Add("smg_TimerElapsed", 5)
	smgTimerMax           = funcs.Add("smg_TimerMax", 7)
	smgTimerReport        = funcs.Add("smg_TimerReport", 10)
	smgDefaultParams      = funcs.Add("smg_DefaultParams", 8)
	smgArgLookup          = funcs.Add("smg_ArgLookup", 6)
	smgParseDim           = funcs.Add("smg_ParseDim", 8)
	smgParseIters         = funcs.Add("smg_ParseIters", 6)
	smgParseTol           = funcs.Add("smg_ParseTol", 7)
	smgCheckParams        = funcs.Add("smg_CheckParams", 8)
	smgInputSummary       = funcs.Add("smg_InputSummary", 10)
	smgReadInput          = funcs.Add("smg_ReadInput", 10)
	smgLogCreate          = funcs.Add("smg_LogCreate", 6)
	smgLogAppend          = funcs.Add("smg_LogAppend", 7)
	smgLogBanner          = funcs.Add("smg_LogBanner", 8)
	smgLogResidual        = funcs.Add("smg_LogResidual", 8)
	smgLogFlush           = funcs.Add("smg_LogFlush", 7)
	smgLogClose           = funcs.Add("smg_LogClose", 5)
	smgStatsInit          = funcs.Add("smg_StatsInit", 6)
	smgStatsConvFactor    = funcs.Add("smg_StatsConvFactor", 9)
	smgStatsAvgConvFactor = funcs.Add("smg_StatsAvgConvFactor", 9)
	smgStatsFinalize      = funcs.Add("smg_StatsFinalize", 8)
	smgReportMemory       = funcs.Add("smg_ReportMemory", 8)
	smgReportComm         = funcs.Add("smg_ReportComm", 10)
	smgReportTimers       = funcs.Add("smg_ReportTimers", 8)
	smgRunHeader          = funcs.Add("smg_RunHeader", 7)
	smgFinalReport        = funcs.Add("smg_FinalReport", 8)
	smgSyncRanks          = funcs.Add("smg_SyncRanks", 6)
	smgRandSeed           = funcs.Add("smg_RandSeed", 6)
	smgProcTopology       = funcs.Add("smg_ProcTopology", 7)
	smgLoadBalanceCheck   = funcs.Add("smg_LoadBalanceCheck", 9)
	smgFlopsEstimate      = funcs.Add("smg_FlopsEstimate", 8)
	smgIterationBudget    = funcs.Add("smg_IterationBudget", 5)
	smgVersionString      = funcs.Add("smg_VersionString", 5)
	smgExitCheck          = funcs.Add("smg_ExitCheck", 8)
	smgDriverMain         = funcs.Add("smg_DriverMain", 20)
	smgCommVolume         = funcs.Add("smg_CommVolume", 8)
	smgNormHistoryRatio   = funcs.Add("smg_NormHistoryRatio", 8)
)

// subset is the 62-function solver subset "responsible for implementing
// the multigrid solver" used by the Subset and Dynamic policies. These
// are the driver-level SMG routines — cycle control, per-level sweeps,
// transfer operators, solver setup and the reductions they depend on —
// which are invoked at per-level, per-cycle rates. The per-plane compute
// kernels and box/index utilities (the other 137 functions) carry the
// enormous call volume that makes the Full and Full-Off policies so
// expensive; instrumenting only this subset records little and, under
// Dynamic, leaves the hot paths completely unpatched.
func subset() []string {
	return []string{
		// cycle and sweep control (20)
		"smg_Solve", "smg_VCycle", "smg_CycleDown", "smg_CycleUp",
		"smg_LevelDown", "smg_LevelUp", "smg_CoarseSolve",
		"smg_Relax", "smg_RelaxSweep", "smg_PreRelax", "smg_PostRelax",
		"smg_Residual", "smg_ResidualNorm", "smg_Restrict", "smg_InterpAdd", "smg_ZeroCoarse",
		"smg_ConvergenceCheck", "smg_IterationUpdate", "smg_LogIteration", "smg_ErrorEstimate",
		// solver operator derivation (4)
		"smg_StencilCreate", "smg_StencilCheck", "smg_StencilCoarsenZ", "smg_DataSize",
		// solver setup (24)
		"smg_ProblemSetup", "smg_HierarchyCreate", "smg_LevelCreate",
		"smg_LevelVectorsCreate", "smg_LevelCommCreate", "smg_LevelDestroy",
		"smg_SetupStencils", "smg_SetupInterp", "smg_SetupRestrict", "smg_SetupRAP",
		"smg_SetupRHS", "smg_SetupInitialGuess", "smg_SetupWorkspace", "smg_SetupBoundary",
		"smg_InitCoefficients", "smg_CheckSetup", "smg_FinalizeSetup", "smg_ProblemDestroy",
		"smg_PartitionGrid", "smg_ValidatePartition", "smg_GridCreate",
		"smg_GridCoarsenZ", "smg_GridNumLevels", "smg_GridCheck",
		// solver reductions and checks (6)
		"smg_VectorNorm", "smg_VectorInnerProd", "smg_VectorLocalDot",
		"smg_VectorMaxAbs", "smg_VectorLocalMaxAbs", "smg_VectorCheckFinite",
		// operator construction (8)
		"smg_MatrixCoarsen", "smg_MatrixCheck", "smg_MatrixFrobenius",
		"smg_MatrixConditionEstimate", "smg_MatrixCopy", "smg_MatrixScale",
		"smg_MatrixDestroy", "smg_MemoryEstimate",
	}
}

// App returns the Smg98 application definition. The input deck fixes the
// per-rank grid, so the global problem grows with the rank count (weak
// scaling): "the input to Smg98 sets the size of the data for each MPI
// process".
func App() *guide.App {
	return &guide.App{
		Name:   "smg98",
		Lang:   guide.MPIC,
		Funcs:  funcs.Funcs(),
		Subset: subset(),
		DefaultArgs: map[string]int{
			"nx": 18, "ny": 18, "nz": 32, "iters": 6, "tolexp": 9,
		},
		// Every rank enters a V-cycle once per solver iteration with no
		// messages in flight.
		SyncPoint: "smg_VCycle",
		Main: func(c *guide.Ctx) {
			c.MPI.Init()
			k := &kernel{c: c, m: c.MPI, rank: c.MPI.Rank(), size: c.MPI.Size()}
			k.driverMain()
			c.MPI.Finalize()
		},
	}
}
